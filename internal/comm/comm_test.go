package comm

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"orbit/internal/cluster"
	"orbit/internal/tensor"
)

// runSPMD launches one goroutine per rank and waits for completion.
func runSPMD(ranks int, body func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(rank)
		}(r)
	}
	wg.Wait()
}

func newGroup(ranks int) *Group {
	m := cluster.NewMachine(cluster.Frontier(), (ranks+7)/8, 0)
	return NewGroup(m.Devices[:ranks])
}

func TestAllGatherOrdersByRank(t *testing.T) {
	g := newGroup(4)
	out := make([][]float32, 4)
	runSPMD(4, func(rank int) {
		shard := []float32{float32(rank * 10), float32(rank*10 + 1)}
		out[rank] = make([]float32, 8)
		g.AllGatherInto(rank, shard, out[rank])
	})
	want := []float32{0, 1, 10, 11, 20, 21, 30, 31}
	for r := 0; r < 4; r++ {
		for i, w := range want {
			if out[r][i] != w {
				t.Fatalf("rank %d AllGather[%d] = %v, want %v", r, i, out[r][i], w)
			}
		}
	}
}

func TestAllReduceSumAndMean(t *testing.T) {
	g := newGroup(3)
	sums := make([][]float32, 3)
	means := make([][]float32, 3)
	runSPMD(3, func(rank int) {
		buf := []float32{float32(rank + 1), 2}
		sums[rank] = make([]float32, 2)
		g.AllReduceSumInto(rank, buf, sums[rank])
		means[rank] = make([]float32, 2)
		g.IAllReduceMean(rank, buf, means[rank]).Wait()
	})
	for r := 0; r < 3; r++ {
		if sums[r][0] != 6 || sums[r][1] != 6 {
			t.Fatalf("rank %d sum = %v", r, sums[r])
		}
		if means[r][0] != 2 || means[r][1] != 2 {
			t.Fatalf("rank %d mean = %v", r, means[r])
		}
	}
}

func TestReduceScatterSum(t *testing.T) {
	g := newGroup(2)
	out := make([][]float32, 2)
	runSPMD(2, func(rank int) {
		// rank 0: [1,2,3,4]; rank 1: [10,20,30,40]
		buf := []float32{1, 2, 3, 4}
		if rank == 1 {
			buf = []float32{10, 20, 30, 40}
		}
		out[rank] = make([]float32, 2)
		g.ReduceScatterSumInto(rank, buf, out[rank])
	})
	if out[0][0] != 11 || out[0][1] != 22 {
		t.Errorf("rank 0 chunk = %v, want [11 22]", out[0])
	}
	if out[1][0] != 33 || out[1][1] != 44 {
		t.Errorf("rank 1 chunk = %v, want [33 44]", out[1])
	}
}

func TestReduceScatterMean(t *testing.T) {
	g := newGroup(2)
	out := make([][]float32, 2)
	runSPMD(2, func(rank int) {
		buf := []float32{2, 4, 6, 8}
		out[rank] = make([]float32, 2)
		g.IReduceScatterMean(rank, buf, out[rank]).Wait()
	})
	if out[0][0] != 2 || out[1][1] != 8 {
		t.Errorf("mean chunks: %v %v", out[0], out[1])
	}
}

func TestAllReduceScalar(t *testing.T) {
	g := newGroup(4)
	out := make([]float64, 4)
	runSPMD(4, func(rank int) {
		out[rank] = g.AllReduceScalar(rank, float64(rank))
	})
	for r, v := range out {
		if v != 6 {
			t.Fatalf("rank %d scalar sum = %v, want 6", r, v)
		}
	}
}

func TestSequentialCollectivesDoNotCrossTalk(t *testing.T) {
	// Back-to-back collectives on the same group must not mix results
	// (exercises the rendezvous sequencing logic).
	g := newGroup(4)
	const iters = 50
	errs := make([]bool, 4)
	runSPMD(4, func(rank int) {
		got := make([]float32, 1)
		full := make([]float32, 4)
		for i := 0; i < iters; i++ {
			g.AllReduceSumInto(rank, []float32{float32(i)}, got)
			if got[0] != float32(4*i) {
				errs[rank] = true
				return
			}
			g.AllGatherInto(rank, []float32{float32(rank + i)}, full)
			for r := 0; r < 4; r++ {
				if full[r] != float32(r+i) {
					errs[rank] = true
					return
				}
			}
		}
	})
	for r, e := range errs {
		if e {
			t.Fatalf("rank %d observed cross-talk", r)
		}
	}
}

func TestIntraNodeGroupCheaperThanInterNode(t *testing.T) {
	buf := make([]float32, 1<<20)
	dsts := [][]float32{make([]float32, 1<<20), make([]float32, 1<<20)}
	// allReduceTime runs one all-reduce over devices a and b of a fresh
	// two-node machine and returns the simulated time it took.
	allReduceTime := func(a, b int) float64 {
		m := cluster.NewMachine(cluster.Frontier(), 2, 0)
		g := NewGroup([]*cluster.Device{m.Devices[a], m.Devices[b]})
		runSPMD(2, func(rank int) { g.AllReduceSumInto(rank, buf, dsts[rank]) })
		return m.MaxClock()
	}
	intraTime := allReduceTime(0, 1) // same node
	interTime := allReduceTime(0, 8) // across nodes
	if intraTime >= interTime {
		t.Errorf("intra-node collective (%v s) should beat inter-node (%v s)", intraTime, interTime)
	}
}

// TestLinkCostClosedForms holds every kind's price to its closed form,
// bit for bit, on both link classes: the engines' clocks and the
// planner's replay both read it, so no cross-check between the two can
// see a wrong term here.
func TestLinkCostClosedForms(t *testing.T) {
	spec := cluster.Frontier()
	const n = 3 << 10
	for _, oneNode := range []bool{true, false} {
		l := LinkFor(spec, oneNode)
		a, b := spec.InterNodeLatency, spec.InterNodeBandwidth
		if oneNode {
			a, b = spec.IntraNodeLatency, spec.IntraNodeBandwidth
		}
		for _, p := range []int{1, 2, 8} {
			fp := float64(p)
			ring := func(bytes float64) float64 {
				if p == 1 {
					return 0
				}
				return (fp - 1) * (a + bytes/fp/b)
			}
			for _, c := range []struct {
				kind Kind
				want float64
			}{
				{AllGather, ring(4 * n * fp)},
				{AllReduce, 2 * ring(4*n)},
				{ReduceScatter, ring(4 * n)},
				{P2P, a + 4*n/b},
			} {
				if got := l.Cost(c.kind, p, n); got != c.want {
					t.Errorf("oneNode=%v %v over %d ranks: cost %v, want %v", oneNode, c.kind, p, got, c.want)
				}
			}
		}
		// The ring pays latency even for an empty payload, grows with
		// bytes, and more ranks do not make it much cheaper.
		if c := l.Cost(ReduceScatter, 2, 0); c <= 0 {
			t.Errorf("oneNode=%v: empty reduce-scatter costs %v, want > 0", oneNode, c)
		}
		if l.Cost(ReduceScatter, 2, 1<<8) >= l.Cost(ReduceScatter, 2, 1<<22) {
			t.Errorf("oneNode=%v: cost does not grow with bytes", oneNode)
		}
		if l.Cost(ReduceScatter, 8, 1<<22) <= l.Cost(ReduceScatter, 2, 1<<22)/4 {
			t.Errorf("oneNode=%v: more ranks made the ring dramatically cheaper", oneNode)
		}
	}
	if l := LinkFor(spec, true); newGroup(8).link != l || newGroup(9).link == l {
		t.Error("NewGroup picks the wrong link class")
	}
}

// Property: AllGather then local shard extraction is the identity, and
// ReduceScatter of replicated data returns each rank's own chunk.
func TestPropertyGatherScatterInverses(t *testing.T) {
	prop := func(seed int64, ranksSel uint8) bool {
		ranks := 2 + int(ranksSel)%3
		per := 3
		g := newGroup(ranks)
		data := make([][]float32, ranks)
		for r := range data {
			data[r] = make([]float32, per)
			for i := range data[r] {
				data[r][i] = float32((seed+int64(r*per+i))%97) / 7
			}
		}
		ok := true
		var mu sync.Mutex
		runSPMD(ranks, func(rank int) {
			full := make([]float32, ranks*per)
			g.AllGatherInto(rank, data[rank], full)
			// shard r of the gathered buffer equals rank r's input
			for r := 0; r < ranks; r++ {
				for i := 0; i < per; i++ {
					if full[r*per+i] != data[r][i] {
						mu.Lock()
						ok = false
						mu.Unlock()
					}
				}
			}
			// reduce-scatter of the replicated full buffer divided by
			// ranks returns the original shard
			back := make([]float32, per)
			g.IReduceScatterMean(rank, full, back).Wait()
			for i := 0; i < per; i++ {
				if math.Abs(float64(back[i]-data[rank][i])) > 1e-6 {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestOneRankCollectivesAreCopies pins the size-1 case of every
// collective — a trainer whose FSDP or TP extent is 1 still posts
// them — as a copy of the input, separate or aliased destination, at
// no simulated cost. TestFastPathsMatchGeneralReduction ties the copy
// to the float64-scratch reduction it stands in for.
func TestOneRankCollectivesAreCopies(t *testing.T) {
	g := newGroup(1)
	in := []float32{0, 1, -1.5, 3.4e38, -3.4e38, 1e-45, 1.0000001, float32(math.Pi), 7}
	same := func(what string, got, want []float32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	into := map[string]func(rank int, buf, dst []float32){
		"AllReduceSumInto":     g.AllReduceSumInto,
		"IAllReduceMean":       func(r int, buf, dst []float32) { g.IAllReduceMean(r, buf, dst).Wait() },
		"ReduceScatterSumInto": g.ReduceScatterSumInto,
		"IReduceScatterMean":   func(r int, buf, dst []float32) { g.IReduceScatterMean(r, buf, dst).Wait() },
		"AllGatherInto":        g.AllGatherInto,
	}
	for name, f := range into {
		dst := make([]float32, len(in))
		f(0, in, dst)
		same(name, dst, in)
	}
	for _, name := range []string{"AllReduceSumInto", "IAllReduceMean", "ReduceScatterSumInto", "IReduceScatterMean"} {
		buf := append([]float32(nil), in...)
		into[name](0, buf, buf)
		same(name+" in place", buf, in)
	}
	if g.Device(0).Clock() != 0 {
		t.Errorf("one-rank collectives advanced the simulated clock to %v", g.Device(0).Clock())
	}
}

func TestReduceScatterRejectsIndivisible(t *testing.T) {
	g := newGroup(3)
	done := make(chan bool, 3)
	runSPMD(3, func(rank int) {
		defer func() { done <- recover() != nil }()
		g.ReduceScatterSumInto(rank, make([]float32, 4), make([]float32, 1)) // 4 % 3 != 0
	})
	for i := 0; i < 3; i++ {
		if !<-done {
			// Only the last-arriving rank runs combine, but the check
			// happens before exchange, so every rank panics.
			t.Fatal("expected panic on indivisible reduce-scatter")
		}
	}
}

// TestFastPathsMatchGeneralReduction pins the bit-identity the
// comments in complete assert: the one-rank copy and the two-rank fused
// pass stand in for the general path — float64 accumulation from zero
// in rank order (g.reduce), scale, round to float32 — which no
// collective reaches at those group sizes. Every pairing of the edge
// values (signed zeros, denormals, ±MaxFloat32, whose sum overflows
// float32 but not the float64 accumulator) and random finite bit
// patterns must agree bit for bit, with the one documented exception:
// where every rank contributes −0 the fast paths keep the sign that the
// scratch's 0+(−0) drops. Every row runs out of place and in place (dst
// the rank's own input, or its own chunk of it).
func TestFastPathsMatchGeneralReduction(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	edge := []float32{0, negZero, 1e-45, -1e-45, 1.1754942e-38, math.MaxFloat32, -math.MaxFloat32, 1, -1.5, float32(math.Pi)}
	const n = 256 // every ordered pair of edge values, then random; even, so two ranks split it
	rng := rand.New(rand.NewSource(19))
	for size := 1; size <= 2; size++ {
		g := newGroup(size)
		ins := make([][]float32, size)
		for r := range ins {
			ins[r] = make([]float32, n)
			for i := range ins[r] {
				switch {
				case i >= len(edge)*len(edge):
					// Random finite value: clearing one exponent bit
					// rules out Inf and NaN.
					ins[r][i] = math.Float32frombits(rng.Uint32() &^ (1 << 23))
				case r == 0:
					ins[r][i] = edge[i/len(edge)]
				default:
					ins[r][i] = edge[i%len(edge)]
				}
			}
		}
		sum := g.reduce(ins) // the fast paths never touch the scratch
		for _, tc := range []struct {
			name    string
			post    func(rank int, buf, dst []float32) Handle
			scale   float64
			scatter bool
		}{
			{"all-reduce sum", g.IAllReduceSum, 1, false},
			{"all-reduce mean", g.IAllReduceMean, 1 / float64(size), false},
			{"reduce-scatter sum", g.IReduceScatterSum, 1, true},
			{"reduce-scatter mean", g.IReduceScatterMean, 1 / float64(size), true},
		} {
			for _, inPlace := range []bool{false, true} {
				chunk := n
				if tc.scatter {
					chunk = n / size
				}
				dsts := make([][]float32, size)
				handles := make([]Handle, size)
				for r := range dsts {
					off := 0
					if tc.scatter {
						off = r * chunk
					}
					buf := ins[r]
					dsts[r] = make([]float32, chunk)
					if inPlace {
						buf = append([]float32(nil), ins[r]...)
						dsts[r] = buf[off : off+chunk]
					}
					handles[r] = tc.post(r, buf, dsts[r])
				}
				for _, h := range handles {
					h.Wait()
				}
				for r, dst := range dsts {
					off := 0
					if tc.scatter {
						off = r * chunk
					}
					for i, got := range dst {
						want := float32(sum[off+i] * tc.scale)
						allNegZero := true
						for _, in := range ins {
							allNegZero = allNegZero && math.Float32bits(in[off+i]) == math.Float32bits(negZero)
						}
						if allNegZero {
							want = negZero
						}
						if math.Float32bits(got) != math.Float32bits(want) {
							t.Errorf("%d-rank %s (in place: %v), rank %d element %d: got %v (%#08x), general path gives %v (%#08x)",
								size, tc.name, inPlace, r, off+i, got, math.Float32bits(got), want, math.Float32bits(want))
						}
					}
				}
			}
		}
	}
}

// TestInPlaceCollectivesMatchOutOfPlace: the NCCL in-place forms — an
// all-gather whose shard is the rank's own slot of dst, a reduce-scatter
// whose dst is the rank's own chunk of its input, an all-reduce onto its
// input — give the bits of the same call with separate buffers, at
// every group size that takes a different path through complete (the
// one-rank skip, the two-rank fused pass, the float64 scratch).
func TestInPlaceCollectivesMatchOutOfPlace(t *testing.T) {
	const chunk = 37 // odd, so the vector kernels leave a tail
	rng := rand.New(rand.NewSource(23))
	for size := 1; size <= 4; size++ {
		g := newGroup(size)
		full := make([][]float32, size) // rank r's [size·chunk] input
		for r := range full {
			full[r] = make([]float32, size*chunk)
			for i := range full[r] {
				full[r][i] = math.Float32frombits(rng.Uint32() &^ (1 << 23))
			}
		}
		own := func(r int, buf []float32) []float32 { return buf[r*chunk : (r+1)*chunk] }
		whole := func(_ int, buf []float32) []float32 { return buf }
		for _, tc := range []struct {
			name string
			post func(rank int, buf, dst []float32) Handle
			// in and dst select the rank's input and destination out of a
			// [size·chunk] buffer; out of place dst comes from a second one.
			in, dst func(r int, buf []float32) []float32
		}{
			{"all-gather", g.IAllGather, own, whole},
			{"reduce-scatter sum", g.IReduceScatterSum, whole, own},
			{"reduce-scatter mean", g.IReduceScatterMean, whole, own},
			{"all-reduce sum", g.IAllReduceSum, whole, whole},
			{"all-reduce mean", g.IAllReduceMean, whole, whole},
		} {
			run := func(inPlace bool) [][]float32 {
				outs := make([][]float32, size)
				runSPMD(size, func(r int) {
					buf := append([]float32(nil), full[r]...)
					dstBuf := buf
					if !inPlace {
						dstBuf = make([]float32, size*chunk)
					}
					outs[r] = tc.dst(r, dstBuf)
					tc.post(r, tc.in(r, buf), outs[r]).Wait()
				})
				return outs
			}
			want, got := run(false), run(true)
			for r := range want {
				for i := range want[r] {
					if math.Float32bits(got[r][i]) != math.Float32bits(want[r][i]) {
						t.Fatalf("%d-rank %s, rank %d element %d: in place %v, out of place %v",
							size, tc.name, r, i, got[r][i], want[r][i])
					}
				}
			}
		}
	}
}

// TestReduceScatterAccMatchesStoreThenAdd: the adding reduce-scatter
// gives, under Float32bits, the bits of the storing one into a slot
// followed by tensor.AddSlice of the slot into the destination — at
// every group size that takes its own path through complete (the
// one-rank add, the two-rank fused pass, the float64 scratch), over an
// odd chunk (the vector kernels' eight- and four-lane passes and a
// tail), with ±0, ±Inf and NaN in every rank's input and in the
// destination.
func TestReduceScatterAccMatchesStoreThenAdd(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	edge := []float32{0, negZero, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e-45, 1, -1.5}
	const chunk = 77
	rng := rand.New(rand.NewSource(29))
	random := func() float32 { return math.Float32frombits(rng.Uint32() &^ (1 << 23)) }
	for size := 1; size <= 3; size++ {
		g := newGroup(size)
		ins := make([][]float32, size)
		dst0 := make([][]float32, size)
		for r := range ins {
			ins[r] = make([]float32, size*chunk)
			for i := range ins[r] {
				// The first len(edge)² elements of each chunk pair every
				// edge value of rank 0 with every one of rank 1.
				switch j := i % chunk; {
				case j >= len(edge)*len(edge) || r > 1:
					ins[r][i] = random()
				case r == 0:
					ins[r][i] = edge[j/len(edge)]
				default:
					ins[r][i] = edge[j%len(edge)]
				}
			}
			dst0[r] = make([]float32, chunk)
			for i := range dst0[r] {
				dst0[r][i] = random()
				if i%3 == 0 {
					dst0[r][i] = edge[(i/3)%len(edge)]
				}
			}
		}
		want, got := make([][]float32, size), make([][]float32, size)
		runSPMD(size, func(r int) {
			slot := make([]float32, chunk)
			g.IReduceScatterMean(r, append([]float32(nil), ins[r]...), slot).Wait()
			want[r] = append([]float32(nil), dst0[r]...)
			tensor.AddSlice(want[r], slot)
		})
		runSPMD(size, func(r int) {
			got[r] = append([]float32(nil), dst0[r]...)
			g.IReduceScatterMeanAcc(r, append([]float32(nil), ins[r]...), got[r]).Wait()
		})
		for r := range want {
			for i := range want[r] {
				if math.Float32bits(got[r][i]) != math.Float32bits(want[r][i]) {
					t.Fatalf("%d ranks, rank %d element %d: adding reduce-scatter %v (%#08x), store then add %v (%#08x)",
						size, r, i, got[r][i], math.Float32bits(got[r][i]), want[r][i], math.Float32bits(want[r][i]))
				}
			}
		}
	}
}

// TestAllGatherNilDestination: a rank that posts no destination still
// contributes its shard and pays for the collective, its peers receive
// everything, and nothing of its own is written.
func TestAllGatherNilDestination(t *testing.T) {
	const chunk = 5
	for size := 1; size <= 4; size++ {
		// Rank 0 passes nil and gathers in place otherwise; the last rank
		// gathers out of place.
		run := func(nilRank0 bool) (bufs [][]float32, clocks []float64) {
			g := newGroup(size)
			bufs = make([][]float32, size)
			clocks = make([]float64, size)
			runSPMD(size, func(r int) {
				buf := make([]float32, size*chunk)
				for i := range buf {
					buf[i] = -1 // never gathered
				}
				shard := buf[r*chunk : (r+1)*chunk]
				for i := range shard {
					shard[i] = float32(10*r + i)
				}
				dst := buf
				switch {
				case r == 0 && nilRank0:
					dst = nil
				case r == size-1 && r > 0:
					dst = make([]float32, size*chunk)
				}
				g.IAllGather(r, shard, dst).Wait()
				bufs[r], clocks[r] = buf, g.Device(r).Clock()
				if dst != nil {
					bufs[r] = dst
				}
			})
			return bufs, clocks
		}
		_, withClocks := run(false)
		got, clocks := run(true)
		for r := 0; r < size; r++ {
			if clocks[r] != withClocks[r] {
				t.Errorf("%d ranks: rank %d finished at %v with rank 0's destination nil, at %v with it", size, r, clocks[r], withClocks[r])
			}
			for i, v := range got[r] {
				want := float32(10*(i/chunk) + i%chunk)
				if r == 0 && i >= chunk {
					want = -1 // untouched: only its own shard is there
				}
				if v != want {
					t.Errorf("%d ranks: rank %d element %d = %v, want %v", size, r, i, v, want)
				}
			}
		}
	}
}

// TestAllReduceNilDestination: an all-reduce that every rank posts with
// a nil destination (a charge-only stage forward's TP all-reduces)
// charges and waits each rank exactly as the same posts with buffers,
// touches no input and allocates nothing — on the one-rank copy, the
// two-rank fused pass and the float64 scratch. In a post mixing nil and
// non-nil destinations, each rank that posted one receives the
// reduction over every rank's input, bit for bit what it receives when
// every rank posts one.
func TestAllReduceNilDestination(t *testing.T) {
	const n = 37 // odd, so the two-rank vector pass leaves a tail
	rng := rand.New(rand.NewSource(31))
	for _, size := range []int{1, 2, 4} {
		ins := make([][]float32, size)
		kept := make([][]float32, size)
		for r := range ins {
			ins[r] = make([]float32, n)
			for i := range ins[r] {
				ins[r][i] = rng.Float32() - 0.5
			}
			kept[r] = append([]float32(nil), ins[r]...)
		}
		post := func(g *Group, r int, sum, mean []float32) {
			g.IAllReduceSum(r, ins[r], sum).Wait()
			g.IAllReduceMean(r, ins[r], mean).Wait()
		}
		type result struct {
			sums, means  [][]float32
			clock, commT []float64
		}
		// run posts with destinations on the ranks that has selects.
		run := func(has func(r int) bool) result {
			g := newGroup(size)
			res := result{make([][]float32, size), make([][]float32, size), make([]float64, size), make([]float64, size)}
			runSPMD(size, func(r int) {
				if has(r) {
					res.sums[r], res.means[r] = make([]float32, n), make([]float32, n)
				}
				post(g, r, res.sums[r], res.means[r])
				res.clock[r], res.commT[r] = g.Device(r).Clock(), g.Device(r).CommTime()
			})
			return res
		}
		all := run(func(int) bool { return true })
		for _, tc := range []struct {
			name string
			has  func(r int) bool
		}{
			{"no rank", func(int) bool { return false }},
			{"all but rank 0", func(r int) bool { return r > 0 }},
			{"rank 0 only", func(r int) bool { return r == 0 }},
		} {
			got := run(tc.has)
			for r := 0; r < size; r++ {
				if got.clock[r] != all.clock[r] || got.commT[r] != all.commT[r] {
					t.Errorf("%d ranks, destinations on %s: rank %d clock / comm time %v / %v, with every destination %v / %v",
						size, tc.name, r, got.clock[r], got.commT[r], all.clock[r], all.commT[r])
				}
				if !tc.has(r) {
					continue
				}
				for i := 0; i < n; i++ {
					if math.Float32bits(got.sums[r][i]) != math.Float32bits(all.sums[r][i]) ||
						math.Float32bits(got.means[r][i]) != math.Float32bits(all.means[r][i]) {
						t.Fatalf("%d ranks, destinations on %s: rank %d element %d = %v / %v, with every destination %v / %v",
							size, tc.name, r, i, got.sums[r][i], got.means[r][i], all.sums[r][i], all.means[r][i])
					}
				}
			}
		}
		for r := range ins {
			for i := range ins[r] {
				if math.Float32bits(ins[r][i]) != math.Float32bits(kept[r][i]) {
					t.Fatalf("%d ranks: rank %d input element %d changed to %v from %v", size, r, i, ins[r][i], kept[r][i])
				}
			}
		}
		if raceEnabled {
			continue
		}
		// Persistent rank goroutines, so AllocsPerRun sees the
		// collectives alone.
		g := newGroup(size)
		start, done := make([]chan struct{}, size), make(chan struct{})
		for r := range start {
			start[r] = make(chan struct{})
			go func() {
				for range start[r] {
					post(g, r, nil, nil)
					done <- struct{}{}
				}
			}()
		}
		step := func() {
			for _, c := range start {
				c <- struct{}{}
			}
			for range start {
				<-done
			}
		}
		step() // warm the pending free list
		if allocs := testing.AllocsPerRun(10, step); allocs > 0 {
			t.Errorf("%d ranks: nil-destination all-reduces allocate %.1f objects per step, want 0", size, allocs)
		}
		for _, c := range start {
			close(c)
		}
	}
}

// TestPanicInsidePostPoisonsGroup: an SPMD violation is detected by
// the rank that posts second, inside post with the group lock held —
// by pendingFor (mismatched collectives) or by complete (a send nobody
// sent). The panic must leave the group poisoned and unlocked, so the
// peer already blocked on the collective unwinds with Poisoned and the
// Poison call of an unwinding step driver returns, instead of both
// hanging on a mutex its owner never released.
func TestPanicInsidePostPoisonsGroup(t *testing.T) {
	buf, dst := make([]float32, 4), make([]float32, 4)
	for _, tc := range []struct {
		name          string
		first, second func(g *Group) Handle
	}{
		{"ordering violation in pendingFor",
			func(g *Group) Handle { return g.IAllReduceSum(0, buf, dst) },
			func(g *Group) Handle { return g.IAllGather(1, buf, make([]float32, 8)) }},
		{"add bit disagreeing in pendingFor",
			func(g *Group) Handle { return g.IReduceScatterMean(0, buf, dst[:2]) },
			func(g *Group) Handle { return g.IReduceScatterMeanAcc(1, buf, make([]float32, 2)) }},
		{"send without a sender in complete",
			func(g *Group) Handle { return g.IRecv(0, dst) },
			func(g *Group) Handle { return g.IRecv(1, make([]float32, 4)) }},
	} {
		g := newGroup(2)
		h := tc.first(g)
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: second post did not panic", tc.name)
				} else if _, ok := r.(Poisoned); ok {
					t.Errorf("%s: second post panicked Poisoned, want the violation's own message", tc.name)
				}
			}()
			tc.second(g)
		}()
		unwound := make(chan any, 1)
		go func() {
			defer func() { unwound <- recover() }()
			g.Poison() // what train.RunElastic's unwind calls on every group
			h.Wait()
		}()
		select {
		case r := <-unwound:
			if _, ok := r.(Poisoned); !ok {
				t.Errorf("%s: first rank's Wait ended with %v, want a Poisoned panic", tc.name, r)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Poison/Wait still blocked after 10 s: the panic left the group mutex locked", tc.name)
		}
	}
}
