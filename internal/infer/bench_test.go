package infer

import (
	"runtime"
	"testing"

	"orbit/internal/ckpt"
	"orbit/internal/climate"
	"orbit/internal/metrics"
	"orbit/internal/quant"
	"orbit/internal/tensor"
	"orbit/internal/train"
	"orbit/internal/vit"
)

// serveFixture builds the serving-benchmark workload: the
// examples/forecast model geometry (8 channels, 16×32 grid, 4-variable
// residual output) over an ERA5-like dataset.
func serveFixture(tb testing.TB, maxBatch int) (*Engine, *ScoreCache, train.Forecaster) {
	tb.Helper()
	vars := climate.RegistrySmall()
	const height, width = 16, 32
	chans := []int{4, 7, 1, 2} // z500, t850, t2m, u10
	w := climate.NewWorld(vars, height, width, climate.ERA5Source())
	stats := w.EstimateStats(8)
	ds := climate.NewDataset(w, stats, 0, 256, 4)
	ds.OutputChans = chans

	cfg := vit.Tiny(len(vars), height, width)
	cfg.OutChannels = len(chans)
	m, err := vit.New(cfg, 12)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := NewEngine(m, Config{ResidualChans: chans, MaxBatch: maxBatch})
	if err != nil {
		tb.Fatal(err)
	}
	eng.Warmup()
	return eng, NewScoreCache(ds, chans), train.Forecaster{Model: m, ResidualChans: chans}
}

// TestRolloutStepAllocs pins the tentpole zero-allocation claim: after
// warmup, a steady-state batched rollout step through the planned
// forward performs no heap allocations.
func TestRolloutStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; see race_off_test.go")
	}
	eng, _, _ := serveFixture(t, 4)
	sc := eng.Model.Config
	var ics []*tensor.Tensor
	leads := []float64{24, 24, 24, 24}
	rng := tensor.NewRNG(3)
	for b := 0; b < 4; b++ {
		ics = append(ics, tensor.Randn(rng, 1, sc.Channels, sc.Height, sc.Width))
	}
	w := eng.acquire()
	defer eng.release(w)
	// Warm this worker at every batch size the ragged horizons shrink
	// the live prefix through.
	steps := []int{3, 1, 2, 3}
	eng.rolloutChunk(w, ics, steps, leads, 0, nil)
	allocs := testing.AllocsPerRun(10, func() {
		eng.rolloutChunk(w, ics, steps, leads, 0, nil)
	})
	if allocs > 0 {
		t.Fatalf("steady-state rollout step allocates %.1f objects/run, want 0", allocs)
	}
}

// TestF32PlanHoldsOneCopyOfTheWeights pins what an f32 replica holds:
// the model's weights once, plus the plan's activation buffers. NewPlan allocates those buffers; the first
// forward at MaxBatch then builds its tensor headers and nothing
// weight-sized — the kernel reads the model's weights in place, so a
// plan that grew by as much as one block's weights would be keeping a
// second copy of them.
func TestF32PlanHoldsOneCopyOfTheWeights(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; see race_off_test.go")
	}
	const maxBatch = 4
	eng, _, _ := serveFixture(t, maxBatch)
	m := eng.Model
	var xs []*tensor.Tensor
	var leads []float64
	rng := tensor.NewRNG(5)
	for b := 0; b < maxBatch; b++ {
		xs = append(xs, tensor.Randn(rng, 1, m.Config.Channels, m.Config.Height, m.Config.Width))
		leads = append(leads, 24)
	}
	var blockBytes uint64
	for _, par := range m.Blocks[0].Params() {
		blockBytes += 4 * uint64(par.W.Len())
	}
	var start, before, after runtime.MemStats
	runtime.ReadMemStats(&start)
	p := NewPlan(m, maxBatch)
	runtime.ReadMemStats(&before)
	p.Forward(xs, leads)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= blockBytes {
		t.Fatalf("first forward of an f32 plan allocated %d bytes beyond its activation buffers; one block's weights are %d", grew, blockBytes)
	}
	// The activation buffers NewPlan made, float32s per sample: patches;
	// per-channel embeddings — the aggregation scores and mixes them in
	// place, with no per-channel keys or values —; the aggregation's mix;
	// thirteen [T,D] stages of a block (two more under QK-norm); the
	// attention probabilities; the MLP's [T,4D] once — GELU runs in place
	// over fc1, with no σ cache and no output buffer of its own —; head
	// tokens and the output.
	cfg := m.Config
	T, D, pp := cfg.Tokens(), cfg.EmbedDim, cfg.Patch*cfg.Patch
	perSample := T*(pp+cfg.Channels*D+D+13*D+cfg.Heads*T+4*D+pp*cfg.OutChannels) + cfg.OutChannels*cfg.Height*cfg.Width
	if cfg.QKNorm {
		perSample += 2 * T * D
	}
	mlp := uint64(4 * maxBatch * T * 4 * D)
	if held, want := before.TotalAlloc-start.TotalAlloc, uint64(4*maxBatch*perSample); held >= want+mlp/2 {
		t.Fatalf("NewPlan allocated %d bytes, %d beyond the activation buffers; a second [B·T,4D] MLP buffer is %d", held, held-want, mlp)
	}
}

// sequentialForecast is the pre-inference-subsystem serving path,
// verbatim: one sample at a time through train.Forecaster.Predict,
// regenerating the verifying truth and climatology per request with no
// cross-request caching (exactly what examples/forecast and EvalACC
// did before this subsystem existed).
func sequentialForecast(f train.Forecaster, ds *climate.Dataset, chans []int, starts []int, steps int) {
	hw := ds.World.Height * ds.World.Width
	for _, start := range starts {
		s := ds.At(start)
		state := s.Input.Clone()
		for k := 0; k < steps; k++ {
			pred := f.Predict(state, s.LeadHours)
			for i, c := range chans {
				copy(state.Data()[c*hw:(c+1)*hw], pred.Data()[i*hw:(i+1)*hw])
			}
			idx := start + (k+1)*ds.LeadSteps
			truth := climate.SelectChannels(ds.At(idx).Input, chans)
			clim := ds.NormalizedClimatologyAt(idx-ds.LeadSteps, chans)
			metrics.WeightedRMSE(pred, truth)
			metrics.WeightedACC(pred, truth, clim)
		}
	}
}

// BenchmarkServeRollout measures served (scored) rollout throughput at
// growing batch widths. One iteration = `batch` concurrent requests,
// each a 4-step scored rollout; the recorded per-op time therefore
// covers batch×4 forecast steps; BENCH_PR4.json reports it as
// sample-steps/second.
func BenchmarkServeRollout(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(byteSize(batch), func(b *testing.B) {
			eng, sc, _ := serveFixture(b, min(batch, 8))
			starts := make([]int, batch)
			for i := range starts {
				starts[i] = (i * 5) % 64
			}
			eng.ScoredRolloutBatch(sc, starts, 4) // prime caches + plans
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ScoredRolloutBatch(sc, starts, 4)
			}
			b.ReportMetric(float64(batch*4)*float64(b.N)/b.Elapsed().Seconds(), "sample-steps/sec")
		})
	}
}

// BenchmarkSequentialForecast is the baseline the serving subsystem
// replaces: per-sample, uncached, allocating inference through the
// Trainer-era Forecaster path. Iterations cover the same 8 requests ×
// 4 steps as BenchmarkServeRollout/batch=8.
func BenchmarkSequentialForecast(b *testing.B) {
	_, sc, f := serveFixture(b, 1)
	starts := []int{0, 5, 10, 15, 20, 25, 30, 35}
	chans := sc.Chans
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sequentialForecast(f, sc.DS, chans, starts, 4)
	}
	b.ReportMetric(float64(len(starts)*4)*float64(b.N)/b.Elapsed().Seconds(), "sample-steps/sec")
}

// BenchmarkRolloutStepUnscored isolates the forward engine (no
// scoring, no truth generation): the number to watch for kernel
// regressions, with its allocation counter expected at zero.
func BenchmarkRolloutStepUnscored(b *testing.B) {
	eng, _, _ := serveFixture(b, 8)
	sc := eng.Model.Config
	rng := tensor.NewRNG(3)
	var ics []*tensor.Tensor
	leads := make([]float64, 8)
	for i := range leads {
		ics = append(ics, tensor.Randn(rng, 1, sc.Channels, sc.Height, sc.Width))
		leads[i] = 24
	}
	w := eng.acquire()
	defer eng.release(w)
	steps := []int{1, 1, 1, 1, 1, 1, 1, 1}
	eng.rolloutChunk(w, ics, steps, leads, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.rolloutChunk(w, ics, steps, leads, 0, nil)
	}
	b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "sample-steps/sec")
}

// BenchmarkPlanForward times one planned forward of the bench model —
// climate.RegistrySmall's eight variables on the 16×32 grid, vit.Tiny
// widened to dim 64 and 4 layers, four output channels — over a batch
// of 8 and of 1, with f32 weights and with int8 containers. The int8
// batch-8 row is what `bash bench/run.sh` reports as
// infer.plan_forward_ms and the batch-1 rows are serve_steady's
// forward, without bench/:
//
//	go test ./internal/infer -run '^$' -bench PlanForward
func BenchmarkPlanForward(b *testing.B) {
	cfg := vit.Tiny(len(climate.RegistrySmall()), 16, 32)
	cfg.EmbedDim, cfg.Layers, cfg.OutChannels = 64, 4, 4
	for _, kind := range []string{"f32", "int8"} {
		for _, batch := range []int{8, 1} {
			b.Run(kind+"/"+byteSize(batch), func(b *testing.B) {
				m, err := vit.New(cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				var qs map[string]*tensor.Quantized
				if kind == "int8" {
					if qs, err = ckpt.QuantizeModel(m, quant.Int8); err != nil {
						b.Fatal(err)
					}
				}
				p := NewPlanQ(m, batch, qs)
				rng := tensor.NewRNG(9)
				xs, leads := make([]*tensor.Tensor, batch), make([]float64, batch)
				for i := range xs {
					xs[i], leads[i] = tensor.Randn(rng, 1, cfg.Channels, cfg.Height, cfg.Width), 24
				}
				p.Forward(xs, leads)
				b.ReportAllocs()
				for b.Loop() {
					p.Forward(xs, leads)
				}
			})
		}
	}
}

func byteSize(n int) string {
	switch n {
	case 1:
		return "batch=1"
	case 8:
		return "batch=8"
	default:
		return "batch=32"
	}
}
