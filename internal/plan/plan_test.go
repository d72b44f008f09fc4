package plan

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"orbit/internal/core"
	"orbit/internal/nn"
	"orbit/internal/parallel"
	"orbit/internal/pp"
	"orbit/internal/tensor"
)

func testWorkload() Workload {
	return Workload{
		Dim: 32, Heads: 4, Layers: 3, Tokens: 16, QKNorm: true,
		GlobalBatch: 64,
		Opts:        core.DefaultOptions(),
	}
}

// oneGPU is c cut down to a single device.
func oneGPU(c ClusterShape) ClusterShape {
	c.Nodes, c.GPUsPerNode = 1, 1
	return c
}

// TestShardNumel pins the analytic shard geometry against the real
// construction: the planner's parameter counts must equal what
// parallel.NewTPBlock + FlattenParams actually produce, for every TP
// rank and a spread of FSDP paddings.
func TestShardNumel(t *testing.T) {
	for _, cfg := range []struct{ dim, heads int }{{8, 2}, {32, 4}, {64, 8}} {
		for _, qk := range []bool{true, false} {
			ref := nn.NewTransformerBlock("ref", cfg.dim, cfg.heads, qk, tensor.NewRNG(3))
			for tp := 1; tp <= cfg.heads; tp *= 2 {
				for rank := 0; rank < tp; rank++ {
					blk := parallel.NewTPBlock(rank, tp, ref)
					got := 0
					for _, p := range blk.Params() {
						got += p.W.Len()
					}
					want := blockShardNumel(cfg.dim, cfg.heads, tp, rank, qk)
					if got != want {
						t.Errorf("dim=%d heads=%d tp=%d rank=%d qk=%v: analytic numel %d, real %d",
							cfg.dim, cfg.heads, tp, rank, qk, want, got)
					}
					for _, fsdp := range []int{1, 2, 3, 4, 7} {
						flat := parallel.FlattenParams(blk.Params(), fsdp)
						if len(flat) != parallel.Padded(want, fsdp) {
							t.Errorf("dim=%d tp=%d rank=%d fsdp=%d: analytic flat len %d, real %d",
								cfg.dim, tp, rank, fsdp, parallel.Padded(want, fsdp), len(flat))
						}
					}
				}
			}
		}
	}
}

// TestEnumerateConstraints checks the structural rules of the search
// space.
func TestEnumerateConstraints(t *testing.T) {
	w := testWorkload()
	c := Shape(2) // 16 devices
	cands, err := Enumerate4(w, c, Constraints{FixPP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("empty enumeration")
	}
	for _, cand := range cands {
		l := cand.Layout
		if l.PP != 1 {
			t.Errorf("FixPP=1 enumeration produced PP=%d", l.PP)
		}
		if w.Heads%l.TP != 0 {
			t.Errorf("TP=%d does not divide %d heads", l.TP, w.Heads)
		}
		if l.Ranks() > c.Devices() {
			t.Errorf("layout %+v exceeds %d devices", l, c.Devices())
		}
		if w.GlobalBatch%(l.FSDP*l.DDP) != 0 {
			t.Errorf("layout %+v: data ranks do not divide global batch", l)
		}
		if cand.Knobs.MicroBatches != w.GlobalBatch/(l.FSDP*l.DDP) {
			t.Errorf("layout %+v: micro batches %d inconsistent", l, cand.Knobs.MicroBatches)
		}
		if cand.Knobs.DDPBucketBytes != 0 && l.DDP == 1 {
			t.Errorf("layout %+v: bucketing enumerated without a DDP level", l)
		}
	}
	// FixTP restricts to a single tensor extent.
	fixed, err := Enumerate4(w, c, Constraints{FixTP: 2, FixPP: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range fixed {
		if cand.Layout.TP != 2 {
			t.Errorf("FixTP=2 enumeration produced TP=%d", cand.Layout.TP)
		}
	}
}

// TestEnumerateRejectsBadConstraints: a negative pin, prefetch depth or
// DDP bucket size is an error naming the field, not "unpinned" or a
// search that finds nothing to run.
func TestEnumerateRejectsBadConstraints(t *testing.T) {
	w := testWorkload()
	for _, tc := range []struct {
		cons Constraints
		want string
	}{
		{Constraints{FixTP: -1}, "plan: negative FixTP -1"},
		{Constraints{FixPP: -2}, "plan: negative FixPP -2"},
		{Constraints{PrefetchDepths: []int{1, -1}}, "core: negative prefetch depth -1"},
		{Constraints{BucketBytes: []int{0, -64}}, "core: negative DDP bucket size -64"},
	} {
		if _, err := Enumerate4(w, Shape(1), tc.cons); err == nil || err.Error() != tc.want {
			t.Errorf("Enumerate4(%+v): error %v, want %q", tc.cons, err, tc.want)
		}
		if _, err := Best4(w, Shape(1), tc.cons); err == nil || err.Error() != tc.want {
			t.Errorf("Best4(%+v): error %v, want %q", tc.cons, err, tc.want)
		}
	}
}

// rank4 is the exhaustive reference Best4 is held to: every candidate
// replayed, then stably sorted by the planner's order.
func rank4(w Workload, c ClusterShape, cons Constraints) ([]Plan4, error) {
	cands, err := Enumerate4(w, c, cons)
	if err != nil {
		return nil, err
	}
	plans := make([]Plan4, len(cands))
	var sc replay
	for i, cand := range cands {
		plans[i] = Plan4{Candidate4: cand, Pred: sc.predict(w, c, cand)}
	}
	sort.SliceStable(plans, func(i, j int) bool { return ahead(plans[i], plans[j]) })
	return plans, nil
}

// exhaustiveBest is what Best4 returned when it ranked every
// candidate: the head of rank4, or an error when nothing fits.
func exhaustiveBest(w Workload, c ClusterShape, cons Constraints) (Plan4, error) {
	plans, err := rank4(w, c, cons)
	if err != nil {
		return Plan4{}, err
	}
	if plans[0].Pred.OOM {
		return Plan4{}, fmt.Errorf("plan: every layout exceeds the %d-byte device memory", c.Spec.MemPerGPU)
	}
	return plans[0], nil
}

// checkBest4 holds Best4 to the exhaustive reference on one query.
func checkBest4(t *testing.T, w Workload, c ClusterShape, cons Constraints) Plan4 {
	t.Helper()
	got, gotErr := Best4(w, c, cons)
	want, wantErr := exhaustiveBest(w, c, cons)
	if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%+v on %d nodes (scale %g), %+v:\n Best4      %v (%v)\n exhaustive %v (%v)",
			w, c.Nodes, c.Spec.PeakFLOPS, cons, got, gotErr, want, wantErr)
	}
	return got
}

// TestBest4MatchesExhaustive: pruning by the lower bound never changes
// the answer. Over a grid of queries — node counts, global batches,
// compute-to-link ratios, option sets, QK-norm and knob grids — and
// three edge cases, Best4 returns exactly the head of the exhaustive
// ranking, or the same error.
func TestBest4MatchesExhaustive(t *testing.T) {
	optSets := []core.Options{
		{LayerWrapping: true, ActivationCheckpoint: true},
		core.DefaultOptions(),
		{MixedPrecision: true}, // unpipelined only
	}
	knobGrids := []Constraints{{}, {PrefetchDepths: []int{0, 1}, BucketBytes: []int{0}}}
	for _, nodes := range []int{1, 2, 4} { // × 4 batches × 4 scales × 3 option sets × 2 × 2 = 576 queries
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			t.Parallel()
			q := 0
			for _, gb := range []int{4, 8, 16, 32} {
				for _, scale := range []float64{1e-4, 1e-3, 1e-2, 1} {
					for _, opts := range optSets {
						for _, qk := range []bool{false, true} {
							for _, cons := range knobGrids {
								if q++; raceEnabled && q%8 != 0 {
									continue // the replay is slow under the race detector
								}
								w := Workload{Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: qk, GlobalBatch: gb, Opts: opts}
								checkBest4(t, w, ScaledShape(nodes, scale), cons)
							}
						}
					}
				}
			}
		})
	}

	// Only PP > 1 fits (TestMemoryBound4DBeats3D's shape).
	w := Workload{Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: true, GlobalBatch: 1, Opts: core.DefaultOptions()}
	c := ScaledShape(1, 1e-3)
	knobs := Knobs{PrefetchDepth: 1, MicroBatches: 1}
	mem3 := Predict4(w, c, Candidate4{Layout: pp.Layout{TP: 4, PP: 1, FSDP: 1, DDP: 1}, Knobs: knobs}).DeviceBytes
	mem4 := Predict4(w, c, Candidate4{Layout: pp.Layout{TP: 4, PP: 2, FSDP: 1, DDP: 1}, Knobs: knobs}).DeviceBytes
	c.Spec.MemPerGPU = (mem3 + mem4) / 2
	if p := checkBest4(t, w, c, Constraints{}); p.Layout.PP <= 1 {
		t.Errorf("memory-bound shape chose %+v", p.Layout)
	}

	// Nothing fits.
	c.Spec.MemPerGPU = 1
	checkBest4(t, w, c, Constraints{})

	// An exact tie on step time: on one rank, prefetch depth changes
	// only the memory, and the later candidate (depth 0) holds less. Its
	// bound, the rank's solo run, equals the incumbent's step time, so it
	// must be replayed, not pruned.
	w = Workload{Dim: 32, Heads: 4, Layers: 2, Tokens: 16, QKNorm: true, GlobalBatch: 1, Opts: core.DefaultOptions()}
	cons := Constraints{PrefetchDepths: []int{1, 0}}
	if p := checkBest4(t, w, oneGPU(Shape(1)), cons); p.Knobs.PrefetchDepth != 0 {
		t.Errorf("tie broke toward prefetch depth %d, want the smaller footprint of depth 0", p.Knobs.PrefetchDepth)
	}
}

// TestBest4KeepsTheFirstAmongEquals: the walk's answer does not depend
// on the order it meets equal plans in, nor on whether a bound equals the
// incumbent's step time exactly.
func TestBest4KeepsTheFirstAmongEquals(t *testing.T) {
	// On stages of at most two blocks, prefetch depths 1 and 2 compile
	// the same programs, so every depth-2 plan ties with the depth-1 plan
	// enumerated just before it. Walked in reverse enumeration order under
	// the trivial bound 0, the walk must still return the exhaustive head.
	w := Workload{Dim: 32, Heads: 4, Layers: 2, Tokens: 16, QKNorm: true, GlobalBatch: 8, Opts: core.DefaultOptions()}
	c := ScaledShape(1, 1e-3)
	cons := Constraints{PrefetchDepths: []int{1, 2}}
	cands, err := Enumerate4(w, c, cons)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]bounded, len(cands))
	for k := range order {
		order[k] = bounded{0, len(cands) - 1 - k}
	}
	var sc replay
	got, err := sc.walk(w, c, cands, order)
	want, wantErr := exhaustiveBest(w, c, cons)
	if !reflect.DeepEqual(got, want) || err != nil || wantErr != nil {
		t.Errorf("reverse walk: %v (%v), exhaustive %v (%v)", got, err, want, wantErr)
	}
	if want.Knobs.PrefetchDepth != 1 {
		t.Errorf("the exhaustive head has depth %d; the case needs its depth-2 twin behind it", want.Knobs.PrefetchDepth)
	}

	// On one rank with free compute every step time and both bounds are
	// 0, so the later depth-0 candidate's bound equals the incumbent's
	// step time exactly. It holds less, so it must still be replayed.
	c.Spec.PeakFLOPS = math.Inf(1)
	if p := checkBest4(t, w, oneGPU(c), Constraints{PrefetchDepths: []int{1, 0}}); p.Knobs.PrefetchDepth != 0 || p.Pred.StepTime != 0 {
		t.Errorf("free compute chose %v, want depth 0 at step time 0", p)
	}

	// A bound may land a rounding step above the step time it bounds: the
	// pre-bound sums the prices in another order than the replay's clocks.
	// With each bound set one step above its candidate's step time, the
	// walk must still replay the tied depth-0 candidate and keep it.
	c, cons = oneGPU(ScaledShape(1, 1e-3)), Constraints{PrefetchDepths: []int{1, 0}}
	if cands, err = Enumerate4(w, c, cons); err != nil {
		t.Fatal(err)
	}
	order = order[:0]
	for k, cand := range cands {
		order = append(order, bounded{math.Nextafter(Predict4(w, c, cand).StepTime, math.Inf(1)), k})
	}
	got, err = sc.walk(w, c, cands, order)
	if want, wantErr = exhaustiveBest(w, c, cons); !reflect.DeepEqual(got, want) || err != nil || want.Knobs.PrefetchDepth != 0 {
		t.Errorf("bounds an ulp above: %v (%v), exhaustive %v (%v)", got, err, want, wantErr)
	}
}

// TestExplainIsMachineReadable: every ranked plan carries a JSON
// explanation that round-trips and exposes the prediction fields.
func TestExplainIsMachineReadable(t *testing.T) {
	w := testWorkload()
	plans, err := rank4(w, Shape(1), Constraints{FixPP: 1})
	if err != nil {
		t.Fatal(err)
	}
	top := plans[0]
	var decoded struct {
		Layout     pp.Layout  `json:"layout"`
		Knobs      Knobs      `json:"knobs"`
		Prediction Prediction `json:"prediction"`
	}
	if err := json.Unmarshal([]byte(top.Explain()), &decoded); err != nil {
		t.Fatalf("Explain is not valid JSON: %v", err)
	}
	if decoded.Layout != top.Layout || decoded.Knobs != top.Knobs {
		t.Errorf("explanation layout/knobs do not round-trip: %+v", decoded)
	}
	if decoded.Prediction.StepTime <= 0 {
		t.Errorf("explanation lacks a positive step-time prediction")
	}
	if decoded.Prediction.DeviceBytes <= 0 {
		t.Errorf("explanation lacks the device memory prediction")
	}
	if !strings.Contains(top.Explain(), "step_time_s") {
		t.Errorf("explanation missing step_time_s field")
	}

	// A candidate that cannot run has an infinite step time, which JSON
	// cannot carry: it is null, and the note and OOM mark survive.
	w.Opts = core.Options{}
	bad := Plan4{Candidate4: Candidate4{Layout: pp.Layout{TP: 1, PP: 2, FSDP: 1, DDP: 1}}}
	bad.Pred = Predict4(w, Shape(1), bad.Candidate4)
	var decodedBad struct {
		Prediction struct {
			StepTime *float64 `json:"step_time_s"`
			OOM      bool     `json:"oom"`
			Note     string   `json:"note"`
		} `json:"prediction"`
	}
	if err := json.Unmarshal([]byte(bad.Explain()), &decodedBad); err != nil {
		t.Fatalf("an infeasible plan's explanation is not valid JSON: %v\n%s", err, bad.Explain())
	}
	if got := decodedBad.Prediction; got.StepTime != nil || !got.OOM || got.Note != bad.Pred.Note || got.Note == "" {
		t.Errorf("infeasible explanation: step time %v, oom %v, note %q; want null, true, %q", got.StepTime, got.OOM, got.Note, bad.Pred.Note)
	}
	if !math.IsInf(bad.Pred.StepTime, 1) {
		t.Errorf("infeasible StepTime %v, want +Inf", bad.Pred.StepTime)
	}
}

// TestBestIsFeasible: the winner fits in device memory and its ranks
// fit the machine.
func TestBestIsFeasible(t *testing.T) {
	w := testWorkload()
	c := Shape(2)
	best, err := Best4(w, c, Constraints{FixPP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if best.Pred.OOM {
		t.Fatalf("best plan predicted OOM: %s", best.Explain())
	}
	if best.Layout.Ranks() > c.Devices() {
		t.Fatalf("best plan %+v does not fit %d devices", best.Layout, c.Devices())
	}
	if best.Pred.DeviceBytes > c.Spec.MemPerGPU {
		t.Fatalf("best plan predicts %d bytes on a %d-byte device", best.Pred.DeviceBytes, c.Spec.MemPerGPU)
	}
}
