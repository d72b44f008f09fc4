package perf

import (
	"math"
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/vit"
)

var frontier = cluster.Frontier()

func TestFamilyConfigHitsAnchors(t *testing.T) {
	cases := []struct {
		target float64
		anchor vit.Config
	}{
		{115e6, vit.ORBIT115M},
		{1e9, vit.ORBIT1B},
		{10e9, vit.ORBIT10B},
		{113e9, vit.ORBIT113B},
	}
	for _, c := range cases {
		cfg := FamilyConfig(c.target, 48)
		got := float64(vit.ParamCount(cfg))
		if math.Abs(got-c.target)/c.target > 0.5 {
			t.Errorf("FamilyConfig(%g) -> %g params (D=%d L=%d)", c.target, got, cfg.EmbedDim, cfg.Layers)
		}
		if cfg.EmbedDim%cfg.Heads != 0 {
			t.Errorf("FamilyConfig(%g) heads %d do not divide dim %d", c.target, cfg.Heads, cfg.EmbedDim)
		}
	}
}

func TestFamilyConfigMonotone(t *testing.T) {
	prev := int64(0)
	for _, target := range []float64{1e8, 1e9, 1e10, 1e11, 1e12} {
		p := vit.ParamCount(FamilyConfig(target, 48))
		if p <= prev {
			t.Fatalf("family params not monotone at %g: %d <= %d", target, p, prev)
		}
		prev = p
	}
}

func TestForwardFLOPsScaling(t *testing.T) {
	small := ForwardFLOPs(FromConfig(vit.ORBIT115M))
	big := ForwardFLOPs(FromConfig(vit.ORBIT113B))
	if small <= 0 || big <= small {
		t.Fatalf("FLOPs scaling wrong: %g vs %g", small, big)
	}
	// 91 channels costs more than 48.
	c48 := ForwardFLOPs(FromConfig(vit.ORBIT10B))
	c91 := ForwardFLOPs(FromConfig(vit.ORBIT10B.WithChannels(91)))
	if c91 <= c48 {
		t.Error("more channels should cost more FLOPs")
	}
}

func TestTrainFLOPsCheckpointAddsRecompute(t *testing.T) {
	s := FromConfig(vit.ORBIT1B)
	plain := TrainFLOPs(s, core.Options{})
	ckpt := TrainFLOPs(s, core.Options{ActivationCheckpoint: true})
	if math.Abs(ckpt/plain-4.0/3) > 1e-9 {
		t.Errorf("checkpoint recompute ratio %v, want 4/3", ckpt/plain)
	}
}

func TestMemoryMonotonicity(t *testing.T) {
	s := FromConfig(vit.ORBIT10B)
	base := Plan{Layout: core.Layout{TP: 8, FSDP: 8, DDP: 1}, Opts: core.DefaultOptions(), MicroBatch: 1}

	wider := base
	wider.Layout.FSDP = 64
	if MemoryPerGPU(s, HybridSTOP, wider, frontier) >= MemoryPerGPU(s, HybridSTOP, base, frontier) {
		t.Error("larger FSDP group should shrink per-GPU memory")
	}

	noCkpt := base
	noCkpt.Opts.ActivationCheckpoint = false
	if MemoryPerGPU(s, HybridSTOP, base, frontier) >= MemoryPerGPU(s, HybridSTOP, noCkpt, frontier) {
		t.Error("activation checkpointing should reduce memory")
	}

	noWrap := base
	noWrap.Opts.LayerWrapping = false
	if MemoryPerGPU(s, HybridSTOP, base, frontier) >= MemoryPerGPU(s, HybridSTOP, noWrap, frontier) {
		t.Error("layer wrapping should reduce memory")
	}

	bigger := base
	bigger.MicroBatch = 4
	if MemoryPerGPU(s, HybridSTOP, bigger, frontier) <= MemoryPerGPU(s, HybridSTOP, base, frontier) {
		t.Error("larger micro-batch should use more memory")
	}
}

func TestVanillaFSDPGathersFullModel(t *testing.T) {
	// The defining Fig. 2 behaviour: vanilla FSDP peak includes a
	// full-model copy, so it exceeds Hybrid-STOP's on the same ranks.
	s := FromConfig(vit.ORBIT10B)
	fsdpPlan := Plan{Layout: core.Layout{TP: 1, FSDP: 64, DDP: 1}, Opts: core.Options{MixedPrecision: true, ActivationCheckpoint: true}, MicroBatch: 1}
	hybridPlan := Plan{Layout: core.Layout{TP: 8, FSDP: 8, DDP: 1}, Opts: core.DefaultOptions(), MicroBatch: 1}
	if MemoryPerGPU(s, FSDPOnly, fsdpPlan, frontier) <= MemoryPerGPU(s, HybridSTOP, hybridPlan, frontier) {
		t.Error("vanilla FSDP peak should exceed Hybrid-STOP on 64 GPUs")
	}
}

// TestFig5Calibration asserts the paper's headline Fig. 5 values at
// 512 GPUs: FSDP caps near 20 B, tensor parallelism near 73 B, and
// Hybrid-STOP far beyond both (the paper demonstrates 143 B).
func TestFig5Calibration(t *testing.T) {
	opts := core.DefaultOptions()
	fsdp := MaxModelSize(FSDPOnly, 512, 48, 2, frontier, opts)
	tp := MaxModelSize(TPOnly, 512, 48, 2, frontier, opts)
	hybrid := MaxModelSize(HybridSTOP, 512, 48, 2, frontier, opts)

	if fsdp < 12e9 || fsdp > 32e9 {
		t.Errorf("FSDP cap %g B, paper reports ≈20 B", float64(fsdp)/1e9)
	}
	if tp < 35e9 || tp > 110e9 {
		t.Errorf("TP cap %g B, paper reports ≈73 B", float64(tp)/1e9)
	}
	if hybrid < 143e9 {
		t.Errorf("Hybrid-STOP cap %g B, paper demonstrates 143 B", float64(hybrid)/1e9)
	}
	if !(hybrid > tp && tp > fsdp) {
		t.Errorf("ordering violated: hybrid %d, tp %d, fsdp %d", hybrid, tp, fsdp)
	}
}

func TestMaxModelSizeMonotoneInGPUs(t *testing.T) {
	opts := core.DefaultOptions()
	for _, strat := range []Strategy{FSDPOnly, TPOnly, HybridSTOP} {
		prev := int64(0)
		for _, n := range []int{1, 8, 64, 512} {
			cap := MaxModelSize(strat, n, 48, 2, frontier, opts)
			if cap < prev {
				t.Errorf("%v: cap decreased at %d GPUs (%d < %d)", strat, n, cap, prev)
			}
			prev = cap
		}
	}
}

func TestFSDPCapSaturates(t *testing.T) {
	// The full-model gather makes FSDP's cap flatten with GPU count
	// (paper: "limited by its peak memory use").
	opts := core.DefaultOptions()
	at64 := MaxModelSize(FSDPOnly, 64, 48, 2, frontier, opts)
	at512 := MaxModelSize(FSDPOnly, 512, 48, 2, frontier, opts)
	if float64(at512) > 1.3*float64(at64) {
		t.Errorf("FSDP cap should saturate: %d at 64 GPUs vs %d at 512", at64, at512)
	}
}

// TestTableICalibration asserts the Table I walltime pattern for the
// 113 B model on 512 GPUs: no-optimization OOMs; each added
// optimization reduces walltime; absolute values land near the paper's
// 0.97 / 0.49 / 0.40 / 0.17 s within 2×.
func TestTableICalibration(t *testing.T) {
	s := FromConfig(vit.ORBIT113B)
	layout := core.Layout{TP: 8, FSDP: 64, DDP: 1}

	none := Plan{Layout: layout, Opts: core.Options{}, MicroBatch: 1}
	if Fits(s, HybridSTOP, none, frontier) {
		t.Error("113 B without optimizations should OOM (Table I column 1)")
	}

	rows := []struct {
		opts  core.Options
		mb    int
		paper float64
	}{
		{core.Options{LayerWrapping: true}, 1, 0.97},
		{core.Options{LayerWrapping: true, MixedPrecision: true}, 1, 0.49},
		{core.Options{LayerWrapping: true, MixedPrecision: true, PrefetchDepth: 1}, 1, 0.40},
		{core.DefaultOptions(), 3, 0.17},
	}
	prev := math.Inf(1)
	for i, r := range rows {
		plan := Plan{Layout: layout, Opts: r.opts, MicroBatch: r.mb}
		got := Step(s, plan, frontier, 0).TimePerSample()
		if got >= prev {
			t.Errorf("row %d: walltime %v did not improve over %v", i, got, prev)
		}
		if got < r.paper/2 || got > r.paper*2 {
			t.Errorf("row %d: walltime %0.3f s/sample, paper reports %0.2f", i, got, r.paper)
		}
		prev = got
	}
}

// TestFig7Calibration asserts the strong-scaling story: all four
// model sizes keep efficiency within the paper's 41–85 % band at
// 49,152 GPUs, and the 10 B / 113 B time-to-solutions land within ~3×
// of the paper's 1e-4 / 3e-3 seconds per sample.
func TestFig7Calibration(t *testing.T) {
	opts := core.DefaultOptions()
	for _, cfg := range vit.PaperConfigs() {
		s := FromConfig(cfg)
		base := Step(s, DefaultPlanFor(s, 512, frontier, opts), frontier, 0)
		big := Step(s, DefaultPlanFor(s, 49152, frontier, opts), frontier, 0)
		e := StrongScalingEfficiency(base.TimePerSample(), 512, big.TimePerSample(), 49152)
		if e < 0.41 || e > 0.95 {
			t.Errorf("%s: efficiency %0.2f at 49,152 GPUs outside [0.41, 0.95]", cfg.Name, e)
		}
	}
	t10 := Step(FromConfig(vit.ORBIT10B), DefaultPlanFor(FromConfig(vit.ORBIT10B), 49152, frontier, opts), frontier, 0).TimePerSample()
	if t10 < 1e-4/3 || t10 > 1e-4*3 {
		t.Errorf("10 B time-to-solution %0.2e, paper reports 1e-4", t10)
	}
	t113 := Step(FromConfig(vit.ORBIT113B), DefaultPlanFor(FromConfig(vit.ORBIT113B), 49152, frontier, opts), frontier, 0).TimePerSample()
	if t113 < 3e-3/4 || t113 > 3e-3*4 {
		t.Errorf("113 B time-to-solution %0.2e, paper reports 3e-3", t113)
	}
}

func TestNinetyOneChannelsSlower(t *testing.T) {
	// Paper Fig. 7b: 91-channel inputs take more walltime per sample
	// than 48-channel at the same model size.
	opts := core.DefaultOptions()
	for _, cfg := range []vit.Config{vit.ORBIT115M, vit.ORBIT10B} {
		s48 := FromConfig(cfg)
		s91 := FromConfig(cfg.WithChannels(91))
		p48 := DefaultPlanFor(s48, 512, frontier, opts)
		p91 := DefaultPlanFor(s91, 512, frontier, opts)
		t48 := Step(s48, p48, frontier, 0).TimePerSample()
		t91 := Step(s91, p91, frontier, 0).TimePerSample()
		if t91 <= t48 {
			t.Errorf("%s: 91-channel %0.3e should exceed 48-channel %0.3e", cfg.Name, t91, t48)
		}
	}
}

func TestSustainedFLOPSReasonable(t *testing.T) {
	// 10 B at 49,152 GPUs sustains O(100 PF–10 EF); the paper reports
	// 1.6 EF with DeepSpeed FLOP counting.
	opts := core.DefaultOptions()
	s := FromConfig(vit.ORBIT10B)
	plan := DefaultPlanFor(s, 49152, frontier, opts)
	b := Step(s, plan, frontier, 0)
	pf := SustainedFLOPS(TrainFLOPs(s, plan.Opts), b) / 1e15
	if pf < 100 || pf > 10000 {
		t.Errorf("sustained throughput %0.0f PF implausible", pf)
	}
}

func TestStepBreakdownAccounting(t *testing.T) {
	s := FromConfig(vit.ORBIT1B)
	plan := Plan{Layout: core.Layout{TP: 2, FSDP: 8, DDP: 2}, Opts: core.DefaultOptions(), MicroBatch: 2}
	b := Step(s, plan, frontier, 96)
	if b.SamplesPerStep != 96 {
		t.Errorf("SamplesPerStep = %d", b.SamplesPerStep)
	}
	// 96 samples over 16 data ranks at micro-batch 2 = 3 micro-steps.
	if b.MicroSteps != 3 {
		t.Errorf("MicroSteps = %d, want 3", b.MicroSteps)
	}
	want := 3*(b.Compute+b.FSDPComm+b.TPComm+b.Overhead) + b.DDPComm
	if math.Abs(b.StepTime()-want) > 1e-12 {
		t.Errorf("StepTime %v != %v", b.StepTime(), want)
	}
	if b.TimePerSample() <= 0 {
		t.Error("TimePerSample must be positive")
	}
}

func TestPrefetchAndMixedPrecisionSpeedup(t *testing.T) {
	s := FromConfig(vit.ORBIT113B)
	layout := core.Layout{TP: 8, FSDP: 64, DDP: 1}
	base := Step(s, Plan{Layout: layout, Opts: core.Options{LayerWrapping: true}, MicroBatch: 1}, frontier, 0)
	bf := Step(s, Plan{Layout: layout, Opts: core.Options{LayerWrapping: true, MixedPrecision: true}, MicroBatch: 1}, frontier, 0)
	pf := Step(s, Plan{Layout: layout, Opts: core.Options{LayerWrapping: true, MixedPrecision: true, PrefetchDepth: 1}, MicroBatch: 1}, frontier, 0)
	if !(bf.StepTime() < base.StepTime() && pf.StepTime() < bf.StepTime()) {
		t.Errorf("optimizations should stack: %v, %v, %v", base.StepTime(), bf.StepTime(), pf.StepTime())
	}
	// bf16 roughly halves the compute time.
	ratio := base.Compute / bf.Compute
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("bf16 compute speedup %v, want ≈2", ratio)
	}
}

func TestEpochTimeMatchesPaperOrder(t *testing.T) {
	// Paper: one epoch (1.2 M samples) of the 113 B model takes
	// 0.8 wall-clock hours on 49,152 GPUs. Accept 0.2–4 h.
	opts := core.DefaultOptions()
	s := FromConfig(vit.ORBIT113B)
	plan := DefaultPlanFor(s, 49152, frontier, opts)
	b := Step(s, plan, frontier, 0)
	hours := 1_200_000 / float64(b.SamplesPerStep) * b.StepTime() / 3600
	if hours < 0.2 || hours > 4 {
		t.Errorf("113 B epoch = %0.2f h, paper reports 0.8 h", hours)
	}
}

func TestDefaultPlanForRespectsGPUBudget(t *testing.T) {
	opts := core.DefaultOptions()
	for _, n := range []int{8, 512, 4096, 49152} {
		for _, cfg := range vit.PaperConfigs() {
			p := DefaultPlanFor(FromConfig(cfg), n, frontier, opts)
			if p.GPUs() > n {
				t.Errorf("%s on %d GPUs: plan uses %d", cfg.Name, n, p.GPUs())
			}
			if p.MicroBatch < 1 {
				t.Errorf("%s: micro-batch %d", cfg.Name, p.MicroBatch)
			}
		}
	}
}

func TestCongestionGrowsWithScale(t *testing.T) {
	if congestion(512, frontier) >= congestion(49152, frontier) {
		t.Error("congestion should grow with machine size")
	}
	if congestion(8, frontier) != 1 {
		t.Errorf("single-node congestion = %v, want 1", congestion(8, frontier))
	}
}

func TestRingTimeProperties(t *testing.T) {
	if ringTime(1, 1e9, 1e9, 1e-6) != 0 {
		t.Error("single-rank ring should be free")
	}
	small := ringTime(4, 1e6, 1e9, 1e-6)
	big := ringTime(4, 1e9, 1e9, 1e-6)
	if small >= big {
		t.Error("ring time should grow with bytes")
	}
}
