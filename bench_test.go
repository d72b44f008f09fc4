package orbit

// The benchmark harness regenerates every table and figure of the
// paper's evaluation section (run `go test -bench=. -benchmem`).
// Frontier-scale results (Fig. 5, Table I, Fig. 6, Fig. 7) come from
// the calibrated analytical model; the learning results (Fig. 8,
// Fig. 9, Fig. 10) train real scaled-down models. Each Fig/Table
// bench prints its table once so the bench log doubles as the
// reproduction record; micro-benchmarks cover the substrate
// (matmul, attention, collectives, Hybrid-STOP steps).

import (
	"fmt"
	"sync"
	"testing"

	"orbit/internal/climate"
	"orbit/internal/cluster"
	"orbit/internal/comm"
	"orbit/internal/core"
	"orbit/internal/metrics"
	"orbit/internal/nn"
	"orbit/internal/perf"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

var printOnce sync.Map

func printTable(b *testing.B, key, table string) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(key, true); !done {
		fmt.Println(table)
	}
}

// --- paper tables and figures ---

func BenchmarkFig5MaxModelSize(b *testing.B) {
	var rows []struct {
		GPUs   int
		FSDP   int64
		TP     int64
		Hybrid int64
	}
	for i := 0; i < b.N; i++ {
		rows = nil
		for _, r := range Fig5() {
			rows = append(rows, struct {
				GPUs   int
				FSDP   int64
				TP     int64
				Hybrid int64
			}{r.GPUs, r.FSDP, r.TP, r.Hybrid})
		}
	}
	printTable(b, "fig5", FormatFig5(Fig5()))
	_ = rows
}

func BenchmarkTableIOptimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		TableI()
	}
	printTable(b, "table1", FormatTableI(TableI()))
}

func BenchmarkFig6ParallelismConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Fig6()
	}
	printTable(b, "fig6", FormatFig6(Fig6()))
}

func BenchmarkFig7StrongScaling48(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Fig7(48)
	}
	printTable(b, "fig7a", FormatFig7(Fig7(48)))
}

func BenchmarkFig7StrongScaling91(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Fig7(91)
	}
	printTable(b, "fig7b", FormatFig7(Fig7(91)))
}

func BenchmarkFig8PretrainLoss(b *testing.B) {
	sc := QuickScale()
	for i := 0; i < b.N; i++ {
		curves := Fig8(sc)
		if i == 0 {
			printTable(b, "fig8", FormatFig8(curves))
		}
	}
}

func BenchmarkFig9ForecastSkill(b *testing.B) {
	sc := QuickScale()
	for i := 0; i < b.N; i++ {
		results := Fig9(sc)
		if i == 0 {
			printTable(b, "fig9", FormatFig9(results))
		}
	}
}

func BenchmarkFig10DataEfficiency(b *testing.B) {
	sc := QuickScale()
	for i := 0; i < b.N; i++ {
		rows := Fig10(sc)
		if i == 0 {
			printTable(b, "fig10", FormatFig10(rows))
		}
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkMatMul256(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, 256, 256)
	y := tensor.Randn(rng, 1, 256, 256)
	z := tensor.New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(z, x, y)
	}
	b.SetBytes(4 * 256 * 256 * 2)
}

func BenchmarkAttentionForward(b *testing.B) {
	rng := tensor.NewRNG(2)
	a := nn.NewMultiHeadAttention("b", 128, 8, true, rng)
	x := tensor.Randn(rng, 1, 64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Forward(x)
	}
}

func BenchmarkTransformerBlockFwdBwd(b *testing.B) {
	rng := tensor.NewRNG(3)
	blk := nn.NewTransformerBlock("b", 64, 4, true, rng)
	x := tensor.Randn(rng, 1, 32, 64)
	g := tensor.Randn(rng, 1, 32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Forward(x)
		blk.Backward(g)
	}
}

func BenchmarkModelForwardTiny(b *testing.B) {
	m, err := vit.New(vit.Tiny(8, 16, 32), 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	x := tensor.Randn(rng, 1, 8, 16, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, 24)
	}
}

func BenchmarkWorldField(b *testing.B) {
	w := climate.NewWorld(climate.Registry48(), 32, 64, climate.ERA5Source())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Field(i)
	}
}

func BenchmarkWeightedMSE(b *testing.B) {
	rng := tensor.NewRNG(6)
	p := tensor.Randn(rng, 1, 48, 32, 64)
	t := tensor.Randn(rng, 1, 48, 32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.WeightedMSE(p, t)
	}
}

// benchSPMD runs body once per rank per iteration on persistent rank
// goroutines, so the measured allocations are the collectives' own,
// not goroutine-spawn overhead.
func benchSPMD(b *testing.B, ranks int, body func(rank int)) {
	b.Helper()
	type job struct{ start, done chan struct{} }
	jobs := make([]job, ranks)
	for r := 0; r < ranks; r++ {
		jobs[r] = job{start: make(chan struct{}), done: make(chan struct{})}
		go func(rank int) {
			for range jobs[rank].start {
				body(rank)
				jobs[rank].done <- struct{}{}
			}
		}(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < ranks; r++ {
			jobs[r].start <- struct{}{}
		}
		for r := 0; r < ranks; r++ {
			<-jobs[r].done
		}
	}
	b.StopTimer()
	for r := 0; r < ranks; r++ {
		close(jobs[r].start)
	}
}

// BenchmarkCommCollectives measures the destination-passing
// collectives at transformer-gradient sizes (a ~64k-float shard is
// one test block's flat gradient scale; run with -benchmem — the
// steady state must be 0 allocs/op).
func BenchmarkCommCollectives(b *testing.B) {
	const ranks = 4
	const shard = 1 << 16 // floats per rank
	newGroup := func() *comm.Group {
		m := cluster.NewMachine(cluster.Frontier(), 1, 0)
		return comm.NewGroup(m.Devices[:ranks])
	}
	b.Run("AllGatherInto", func(b *testing.B) {
		g := newGroup()
		shards := make([][]float32, ranks)
		fulls := make([][]float32, ranks)
		for r := range shards {
			shards[r] = make([]float32, shard)
			fulls[r] = make([]float32, shard*ranks)
		}
		b.SetBytes(4 * shard * ranks)
		benchSPMD(b, ranks, func(rank int) {
			g.AllGatherInto(rank, shards[rank], fulls[rank])
		})
	})
	b.Run("AllReduceSumInto", func(b *testing.B) {
		g := newGroup()
		bufs := make([][]float32, ranks)
		for r := range bufs {
			bufs[r] = make([]float32, shard*ranks)
		}
		b.SetBytes(4 * shard * ranks)
		benchSPMD(b, ranks, func(rank int) {
			g.AllReduceSumInto(rank, bufs[rank], bufs[rank])
		})
	})
	b.Run("ReduceScatterSumInto", func(b *testing.B) {
		g := newGroup()
		bufs := make([][]float32, ranks)
		chunks := make([][]float32, ranks)
		for r := range bufs {
			bufs[r] = make([]float32, shard*ranks)
			chunks[r] = make([]float32, shard)
		}
		b.SetBytes(4 * shard * ranks)
		benchSPMD(b, ranks, func(rank int) {
			g.ReduceScatterSumInto(rank, bufs[rank], chunks[rank])
		})
	})
	b.Run("OverlappedAllReducePair", func(b *testing.B) {
		// Two collectives in flight at once — the bucketed-DDP posting
		// pattern — must also recycle to zero allocations.
		g := newGroup()
		bufs := make([][]float32, ranks)
		bufs2 := make([][]float32, ranks)
		for r := range bufs {
			bufs[r] = make([]float32, shard)
			bufs2[r] = make([]float32, shard)
		}
		b.SetBytes(4 * 2 * shard)
		benchSPMD(b, ranks, func(rank int) {
			h1 := g.IAllReduceSum(rank, bufs[rank], bufs[rank])
			h2 := g.IAllReduceSum(rank, bufs2[rank], bufs2[rank])
			h1.Wait()
			h2.Wait()
		})
	})
}

// BenchmarkHybridSTOPStep measures one functional Hybrid-STOP
// training step (TP 2 × FSDP 2 on 4 simulated GPUs): ZeroGrad, one
// forward and one backward per rank.
func BenchmarkHybridSTOPStep(b *testing.B) {
	layout := core.Layout{TP: 2, FSDP: 2, DDP: 1}
	m := cluster.NewMachine(cluster.Frontier(), 1, 0)
	groups, err := core.BuildGroups(layout, m)
	if err != nil {
		b.Fatal(err)
	}
	engines := make([]*core.Engine, layout.Ranks())
	for r := range engines {
		rng := tensor.NewRNG(9)
		ref := []*nn.TransformerBlock{
			nn.NewTransformerBlock("b0", 32, 4, true, rng),
			nn.NewTransformerBlock("b1", 32, 4, true, rng),
		}
		e, err := core.NewEngine(r, layout, groups[r], ref, core.DefaultOptions(), m.Devices[r])
		if err != nil {
			b.Fatal(err)
		}
		engines[r] = e
	}
	rng := tensor.NewRNG(10)
	xs := []*tensor.Tensor{tensor.Randn(rng, 1, 16, 32), tensor.Randn(rng, 1, 16, 32)}
	gs := []*tensor.Tensor{tensor.Randn(rng, 1, 16, 32), tensor.Randn(rng, 1, 16, 32)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < layout.Ranks(); r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c := layout.CoordOf(rank)
				engines[rank].ZeroGrad()
				if _, err := engines[rank].Forward(xs[c.F]); err != nil {
					b.Error(err)
					return
				}
				if _, err := engines[rank].Backward(gs[c.F]); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
}

// BenchmarkPerfModelStep measures the analytical model itself (it is
// evaluated thousands of times by the solvers).
func BenchmarkPerfModelStep(b *testing.B) {
	shape := perf.FromConfig(vit.ORBIT113B)
	spec := cluster.Frontier()
	plan := perf.DefaultPlanFor(shape, 49152, spec, core.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perf.Step(shape, plan, spec, 0)
	}
}
