package plan

import (
	"math"
	"testing"

	"orbit/internal/core"
	"orbit/internal/pp"
)

// Calibration: the planner's predicted step times must track the
// functional comm-clock simulation across a layout grid, and its top
// choice must land within a few percent of the brute-force optimum.
// The predictor replays the same 1F1B instruction stream the engines
// execute, so unpipelined (PP=1) and pipelined layouts are held to the
// same envelope by the same helper.

// calibTolerance is the maximum allowed relative error between
// predicted and simulated step time. The predictor replays the exact
// engine schedule, so the observed error is 0.00% on every grid here;
// the gate guards against predictor/engine drift at the same 1% the
// benchmark's plan_query workload fails a run at.
const calibTolerance = 0.01

// optimalityTolerance: the planner's top-ranked layout must achieve a
// simulated step time within 5% of the grid-sweep optimum.
const optimalityTolerance = 0.05

func relErr(pred, meas float64) float64 {
	if meas == 0 {
		return math.Abs(pred)
	}
	return math.Abs(pred-meas) / meas
}

// calibrate4 checks predicted-vs-simulated agreement for every grid
// candidate and returns the measurements.
func calibrate4(t *testing.T, w Workload, c ClusterShape, cands []Candidate4) []Measured4 {
	t.Helper()
	meas := make([]Measured4, len(cands))
	for i, cand := range cands {
		m := Simulate4(w, c, cand, 2)
		if m.Err != nil {
			t.Fatalf("simulation of %+v failed: %v", cand.Layout, m.Err)
		}
		meas[i] = m
		pred := Predict4(w, c, cand)
		if pred.OOM {
			t.Fatalf("predictor declared %+v infeasible: %s", cand.Layout, pred.Note)
		}
		if e := relErr(pred.StepTime, m.StepTime); e > calibTolerance {
			t.Errorf("layout %+v knobs %+v: predicted %.6gs, simulated %.6gs (%.2f%% error, tolerance %.0f%%)",
				cand.Layout, cand.Knobs, pred.StepTime, m.StepTime, 100*e, 100*calibTolerance)
		}
	}
	return meas
}

// cand4 is the candidate at prefetch depth 1 with the micro-batch
// count the layout implies.
func cand4(l pp.Layout, batch int) Candidate4 {
	return Candidate4{
		Layout: l,
		Knobs:  Knobs{PrefetchDepth: 1, MicroBatches: batch / (l.FSDP * l.DDP)},
	}
}

// bestVsOptimum asserts the planner's unpipelined choice is within
// optimalityTolerance of the measured PP=1 grid optimum.
func bestVsOptimum(t *testing.T, w Workload, c ClusterShape, meas []Measured4) {
	t.Helper()
	best, err := Best4(w, c, Constraints{FixPP: 1})
	if err != nil {
		t.Fatal(err)
	}
	chosen := Simulate4(w, c, best.Candidate4, 2)
	if chosen.Err != nil {
		t.Fatalf("simulating planner choice %+v: %v", best.Layout, chosen.Err)
	}
	opt := math.Inf(1)
	var optCand Candidate4
	for _, m := range meas {
		if m.Err == nil && m.StepTime < opt {
			opt = m.StepTime
			optCand = m.Candidate4
		}
	}
	if chosen.StepTime > opt*(1+optimalityTolerance) {
		t.Errorf("planner chose %+v %+v (simulated %.6gs); grid optimum %+v %+v at %.6gs (gap %.1f%%, tolerance %.0f%%)",
			best.Layout, best.Knobs, chosen.StepTime,
			optCand.Layout, optCand.Knobs, opt,
			100*(chosen.StepTime/opt-1), 100*optimalityTolerance)
	}
}

// TestPlannerCalibration16 covers a ≥ 12-point (TP, FSDP, DDP) grid
// on a 16-device (2-node) cluster: the full factor grid at the
// default knobs.
func TestPlannerCalibration16(t *testing.T) {
	if raceEnabled {
		t.Skip("full calibration grid is minutes under -race; knob/memory calibration still runs")
	}
	w := testWorkload()
	c := ScaledShape(2, 1e-3)
	var cands []Candidate4
	for _, l := range []pp.Layout{
		{TP: 1, PP: 1, FSDP: 1, DDP: 16}, {TP: 1, PP: 1, FSDP: 2, DDP: 8}, {TP: 1, PP: 1, FSDP: 4, DDP: 4},
		{TP: 1, PP: 1, FSDP: 8, DDP: 2}, {TP: 1, PP: 1, FSDP: 16, DDP: 1},
		{TP: 2, PP: 1, FSDP: 1, DDP: 8}, {TP: 2, PP: 1, FSDP: 2, DDP: 4}, {TP: 2, PP: 1, FSDP: 4, DDP: 2},
		{TP: 2, PP: 1, FSDP: 8, DDP: 1},
		{TP: 4, PP: 1, FSDP: 1, DDP: 4}, {TP: 4, PP: 1, FSDP: 2, DDP: 2}, {TP: 4, PP: 1, FSDP: 4, DDP: 1},
	} {
		cands = append(cands, cand4(l, w.GlobalBatch))
	}
	if len(cands) < 12 {
		t.Fatalf("grid has %d points, want >= 12", len(cands))
	}
	meas := calibrate4(t, w, c, cands)
	bestVsOptimum(t, w, c, meas)
}

// TestPlannerCalibration64 repeats the gate on a 64-device (8-node)
// cluster over a spread of layouts, including non-power-of-two FSDP
// extents (which exercise flat-length padding) and partially occupied
// grids.
func TestPlannerCalibration64(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("64-device sweep is the long calibration gate; skipped under -short and -race")
	}
	w := testWorkload()
	c := ScaledShape(8, 1e-3)
	var cands []Candidate4
	for _, l := range []pp.Layout{
		{TP: 1, PP: 1, FSDP: 1, DDP: 64}, {TP: 1, PP: 1, FSDP: 8, DDP: 8}, {TP: 1, PP: 1, FSDP: 64, DDP: 1},
		{TP: 1, PP: 1, FSDP: 16, DDP: 4}, {TP: 2, PP: 1, FSDP: 4, DDP: 8}, {TP: 2, PP: 1, FSDP: 32, DDP: 1},
		{TP: 2, PP: 1, FSDP: 16, DDP: 2}, {TP: 4, PP: 1, FSDP: 16, DDP: 1}, {TP: 4, PP: 1, FSDP: 4, DDP: 4},
		{TP: 4, PP: 1, FSDP: 1, DDP: 16}, {TP: 2, PP: 1, FSDP: 8, DDP: 2}, {TP: 4, PP: 1, FSDP: 8, DDP: 2},
	} {
		cands = append(cands, cand4(l, w.GlobalBatch))
	}
	meas := calibrate4(t, w, c, cands)
	bestVsOptimum(t, w, c, meas)
}

// TestPlannerCalibrationKnobs: the predictor must also track the
// knob dimensions — prefetch depth 0/1/2, bucketed vs per-chunk DDP
// reductions, and disabled layer wrapping.
func TestPlannerCalibrationKnobs(t *testing.T) {
	w := testWorkload()
	c := ScaledShape(2, 1e-3)
	l := pp.Layout{TP: 2, PP: 1, FSDP: 2, DDP: 4}
	micro := w.GlobalBatch / (l.FSDP * l.DDP)
	cands := []Candidate4{
		{Layout: l, Knobs: Knobs{PrefetchDepth: 0, MicroBatches: micro}},
		{Layout: l, Knobs: Knobs{PrefetchDepth: 2, MicroBatches: micro}},
		{Layout: l, Knobs: Knobs{PrefetchDepth: 1, DDPBucketBytes: 1 << 10, MicroBatches: micro}},
		{Layout: l, Knobs: Knobs{PrefetchDepth: 1, DDPBucketBytes: 1 << 30, MicroBatches: micro}},
	}
	calibrate4(t, w, c, cands)

	// Non-default base options: no layer wrapping, no checkpointing.
	w2 := w
	w2.Opts.LayerWrapping = false
	w2.Opts.ActivationCheckpoint = false
	calibrate4(t, w2, c, []Candidate4{
		{Layout: pp.Layout{TP: 2, PP: 1, FSDP: 4, DDP: 1}, Knobs: Knobs{MicroBatches: w2.GlobalBatch / 4}},
	})
}

// TestPlanner4DCalibration16 is the 16-device acceptance gate for the
// pipeline axis: PP ∈ {2, 3} stages composed with every inner axis.
func TestPlanner4DCalibration16(t *testing.T) {
	if raceEnabled {
		t.Skip("full calibration grid is minutes under -race; the knob calibration still runs")
	}
	w := testWorkload()
	c := ScaledShape(2, 1e-3)
	var cands []Candidate4
	for _, l := range []pp.Layout{
		{TP: 1, PP: 1, FSDP: 4, DDP: 2},
		{TP: 1, PP: 2, FSDP: 1, DDP: 8}, {TP: 1, PP: 2, FSDP: 2, DDP: 2},
		{TP: 1, PP: 2, FSDP: 4, DDP: 2}, {TP: 1, PP: 2, FSDP: 8, DDP: 1},
		{TP: 2, PP: 2, FSDP: 2, DDP: 2}, {TP: 2, PP: 2, FSDP: 4, DDP: 1},
		{TP: 4, PP: 2, FSDP: 2, DDP: 1},
		{TP: 1, PP: 3, FSDP: 2, DDP: 2}, {TP: 1, PP: 3, FSDP: 4, DDP: 1},
		{TP: 2, PP: 3, FSDP: 2, DDP: 1},
	} {
		cands = append(cands, cand4(l, w.GlobalBatch))
	}
	calibrate4(t, w, c, cands)
}

// TestPlanner4DCalibration64 repeats the gate on a 64-device (8-node)
// cluster, where stage links cross node boundaries.
func TestPlanner4DCalibration64(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("64-device sweep is the long calibration gate; skipped under -short and -race")
	}
	w := testWorkload()
	c := ScaledShape(8, 1e-3)
	var cands []Candidate4
	for _, l := range []pp.Layout{
		{TP: 1, PP: 2, FSDP: 16, DDP: 2}, {TP: 1, PP: 2, FSDP: 8, DDP: 4},
		{TP: 2, PP: 2, FSDP: 8, DDP: 2}, {TP: 2, PP: 2, FSDP: 16, DDP: 1},
		{TP: 4, PP: 2, FSDP: 4, DDP: 2},
		{TP: 1, PP: 3, FSDP: 16, DDP: 1}, {TP: 2, PP: 3, FSDP: 4, DDP: 2},
	} {
		cands = append(cands, cand4(l, w.GlobalBatch))
	}
	calibrate4(t, w, c, cands)
}

// TestPredict4ReportsBubbles: a deep pipeline with few micro-batches
// must surface a non-zero PPWait — the bubbles fall out of the replay,
// not an analytic formula — and the wait must shrink when micro-batch
// count grows at a fixed stage count.
func TestPredict4ReportsBubbles(t *testing.T) {
	w := testWorkload()
	c := ScaledShape(2, 1e-3)
	shallow := Predict4(w, c, cand4(pp.Layout{TP: 1, PP: 3, FSDP: 4, DDP: 1}, w.GlobalBatch))
	if shallow.PPWait <= 0 {
		t.Fatalf("PP=3 pipeline reported no bubble wait: %+v", shallow)
	}
	few := w
	few.GlobalBatch = 8 // 2 micro-batches per data rank: mostly bubble
	deep := Predict4(few, c, cand4(pp.Layout{TP: 1, PP: 3, FSDP: 4, DDP: 1}, few.GlobalBatch))
	if frac, shallowFrac := deep.PPWait/deep.StepTime, shallow.PPWait/shallow.StepTime; frac <= shallowFrac {
		t.Errorf("bubble fraction should grow as micro-batches shrink: %d micros %.3f vs %d micros %.3f",
			few.GlobalBatch/4, frac, w.GlobalBatch/4, shallowFrac)
	}
}

// TestMemoryBound4DBeats3D is the acceptance workload where only
// pipelining fits: GlobalBatch=1 pins FSDP=DDP=1, so PP=1 layouts can
// shard parameters only across TP ≤ Heads, while PP=2 additionally
// halves the per-rank block count. With device memory set between the
// two footprints, every PP=1 layout OOMs and Best4 must find a PP>1
// plan that fits.
func TestMemoryBound4DBeats3D(t *testing.T) {
	w := Workload{
		Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: true,
		GlobalBatch: 1,
		Opts:        core.DefaultOptions(),
	}
	c := ScaledShape(1, 1e-3)
	knobs := Knobs{PrefetchDepth: 1, MicroBatches: 1}
	mem3 := Predict4(w, c, Candidate4{Layout: pp.Layout{TP: 4, PP: 1, FSDP: 1, DDP: 1}, Knobs: knobs}).DeviceBytes
	mem4 := Predict4(w, c, Candidate4{Layout: pp.Layout{TP: 4, PP: 2, FSDP: 1, DDP: 1}, Knobs: knobs}).DeviceBytes
	if mem4 >= mem3 {
		t.Fatalf("PP=2 footprint %d not below the best PP=1 footprint %d; shape is not memory-bound", mem4, mem3)
	}
	c.Spec.MemPerGPU = (mem3 + mem4) / 2

	if best, err := Best4(w, c, Constraints{FixPP: 1}); err == nil {
		t.Fatalf("unpipelined search found a fitting layout %+v on a device only pipelining fits", best.Layout)
	}
	best4, err := Best4(w, c, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if best4.Layout.PP <= 1 {
		t.Fatalf("Best4 chose %+v; only PP>1 fits the %d-byte device", best4.Layout, c.Spec.MemPerGPU)
	}
	if best4.Pred.OOM {
		t.Fatalf("Best4 plan predicted OOM: %+v", best4.Pred)
	}
	// Ground-truth the memory claim on the real engines.
	m := Simulate4(w, c, best4.Candidate4, 1)
	if m.Err != nil {
		t.Fatalf("simulating Best4 choice %+v: %v", best4.Layout, m.Err)
	}
	if m.MemPeak > c.Spec.MemPerGPU {
		t.Fatalf("Best4 choice peaked at %d bytes on a %d-byte device", m.MemPeak, c.Spec.MemPerGPU)
	}
}

// TestPredictedMemoryExact pins the simulated-accounting memory
// prediction byte-for-byte against cluster.Device.MemPeak, for
// unpipelined and pipelined layouts alike, with each option flag off
// at least once and every prefetch depth of the default grid.
func TestPredictedMemoryExact(t *testing.T) {
	c := ScaledShape(2, 1e-3)
	base := testWorkload()
	// The added rows run a global batch of 16, two to four micro-batches
	// per data rank: a pipelined stage still fills its 1F1B warm-up, and
	// the simulation is cheaper.
	small := base
	small.GlobalBatch = 16
	off := func(w Workload, clear func(*core.Options)) Workload {
		clear(&w.Opts)
		return w
	}
	noCkpt := func(o *core.Options) { o.ActivationCheckpoint = false }
	noWrap := off(small, func(o *core.Options) { o.LayerWrapping = false })
	fp32 := off(small, func(o *core.Options) { o.MixedPrecision = false })
	bare := off(small, func(o *core.Options) { *o = core.Options{} })
	noQK := small
	noQK.QKNorm = false
	for _, row := range []struct {
		w      Workload
		l      pp.Layout
		depth  int
		bucket int
	}{
		{base, pp.Layout{TP: 2, PP: 1, FSDP: 4, DDP: 2}, 1, 0},
		{base, pp.Layout{TP: 1, PP: 1, FSDP: 8, DDP: 1}, 2, 0},
		{base, pp.Layout{TP: 4, PP: 1, FSDP: 2, DDP: 2}, 0, 0},
		{base, pp.Layout{TP: 1, PP: 3, FSDP: 4, DDP: 1}, 1, 0},
		{base, pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 2}, 1, 0},
		{small, pp.Layout{TP: 1, PP: 2, FSDP: 4, DDP: 2}, 2, 1 << 10},
		{small, pp.Layout{TP: 2, PP: 2, FSDP: 4, DDP: 1}, 0, 0},
		{noWrap, pp.Layout{TP: 2, PP: 1, FSDP: 4, DDP: 2}, 0, 0},
		{noWrap, pp.Layout{TP: 1, PP: 1, FSDP: 4, DDP: 1}, 2, 0},
		{off(base, noCkpt), pp.Layout{TP: 2, PP: 1, FSDP: 2, DDP: 1}, 1, 0},
		{off(small, noCkpt), pp.Layout{TP: 1, PP: 1, FSDP: 4, DDP: 2}, 2, 0},
		{fp32, pp.Layout{TP: 2, PP: 1, FSDP: 4, DDP: 2}, 0, 0},
		{fp32, pp.Layout{TP: 1, PP: 2, FSDP: 4, DDP: 2}, 2, 0},
		{bare, pp.Layout{TP: 2, PP: 1, FSDP: 2, DDP: 2}, 1, 1 << 10},
		{noQK, pp.Layout{TP: 4, PP: 1, FSDP: 2, DDP: 2}, 1, 0},
	} {
		cand := Candidate4{Layout: row.l, Knobs: Knobs{PrefetchDepth: row.depth, DDPBucketBytes: row.bucket,
			MicroBatches: row.w.GlobalBatch / (row.l.FSDP * row.l.DDP)}}
		pred := Predict4(row.w, c, cand)
		meas := Simulate4(row.w, c, cand, 1)
		if meas.Err != nil {
			t.Fatalf("%+v %+v: %v", row.w.Opts, cand.Layout, meas.Err)
		}
		if pred.DeviceBytes != meas.MemPeak {
			t.Errorf("options %+v layout %+v knobs %+v: predicted %d bytes, simulated peak %d",
				row.w.Opts, cand.Layout, cand.Knobs, pred.DeviceBytes, meas.MemPeak)
		}
	}
}
