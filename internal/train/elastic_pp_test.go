package train

import (
	"math"
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/pp"
)

// TestElasticPP2MatchesPP1BitIdentical is the schedule-conformance
// property lifted to the full training loop: the same job run with
// PP=2 (two single-block stages under 1F1B) must reproduce the PP=1
// loss trajectory bit-for-bit. The inner grid — and therefore the
// data-rank → micro-batch assignment — is identical; pipelining only
// changes where the float operations execute, never their sequence.
func TestElasticPP2MatchesPP1BitIdentical(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 2, DDP: 1}
	ref := elasticBase(t, layout, 1, 2)
	refRes, err := RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	pped := elasticBase(t, layout, 1, 4)
	pped.PP = 2
	gotRes, err := RunElastic(pped, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.FinalPP != 2 {
		t.Fatalf("FinalPP = %d, want 2", gotRes.FinalPP)
	}
	if len(gotRes.Losses) != len(refRes.Losses) {
		t.Fatalf("%d steps, want %d", len(gotRes.Losses), len(refRes.Losses))
	}
	for s := range refRes.Losses {
		if gotRes.Losses[s] != refRes.Losses[s] {
			t.Fatalf("step %d: PP=2 loss %v != PP=1 loss %v (must be bit-identical)",
				s, gotRes.Losses[s], refRes.Losses[s])
		}
	}
}

// TestKillStageNodeReshardsAcrossPP is the kill-a-stage satellite: a
// PP=2 job whose second stage lives entirely on node 1 loses that node
// mid-run. The rebuild has only half the devices left, so
// ShrinkLayout4 collapses the pipeline axis (DDP is already 1) and the
// checkpoint is resharded across PP — two single-block stage shards
// regrouped into one two-block stage. Because stage regrouping is pure
// concatenation and the inner (TP, FSDP, DDP) grid is unchanged, the
// resumed PP=1 run must match the uninterrupted PP=2 run bit-for-bit,
// replayed steps included.
func TestKillStageNodeReshardsAcrossPP(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 2, DDP: 1}
	ref := elasticBase(t, layout, 2, 2)
	ref.PP = 2
	refRes, err := RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	faulted := elasticBase(t, layout, 2, 2)
	faulted.PP = 2
	inj := cluster.NewFaultInjector()
	inj.KillNodeAtStep(1, 9) // devices 2,3 = stage 1 of the pipeline
	gotRes, err := RunElastic(faulted, inj)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1 (events: %+v)", gotRes.Rebuilds, gotRes.Events)
	}
	if gotRes.FinalPP != 1 {
		t.Fatalf("FinalPP = %d, want 1 (pipeline must collapse on half the devices)", gotRes.FinalPP)
	}
	if gotRes.FinalLayout != layout {
		t.Fatalf("resumed inner layout %+v, want %+v", gotRes.FinalLayout, layout)
	}
	for s := range refRes.Losses {
		if gotRes.Losses[s] != refRes.Losses[s] {
			t.Fatalf("step %d: resharded-across-PP loss %v != uninterrupted %v (must be bit-identical)",
				s, gotRes.Losses[s], refRes.Losses[s])
		}
	}
	if refRes.Losses[len(refRes.Losses)-1] >= refRes.Losses[0] {
		t.Errorf("loss did not decrease: %v -> %v", refRes.Losses[0], refRes.Losses[len(refRes.Losses)-1])
	}
}

// TestKillStageNodeResumesAtSamePP keeps enough spare capacity that
// the pipeline survives: three single-GPU nodes host a 2-stage
// pipeline with one idle spare. Killing the stage-1 node must resume
// at PP=2 on the spare, bit-identical to the unkilled run.
func TestKillStageNodeResumesAtSamePP(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 1, DDP: 1}
	ref := elasticBase(t, layout, 3, 1)
	ref.PP = 2
	refRes, err := RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	faulted := elasticBase(t, layout, 3, 1)
	faulted.PP = 2
	inj := cluster.NewFaultInjector()
	inj.KillNodeAtStep(1, 9) // device 1 = stage 1; node 2 is the spare
	gotRes, err := RunElastic(faulted, inj)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1 (events: %+v)", gotRes.Rebuilds, gotRes.Events)
	}
	if gotRes.FinalPP != 2 {
		t.Fatalf("FinalPP = %d, want 2 (spare node keeps the pipeline alive)", gotRes.FinalPP)
	}
	for s := range refRes.Losses {
		if gotRes.Losses[s] != refRes.Losses[s] {
			t.Fatalf("step %d: resumed-on-spare loss %v != uninterrupted %v (must be bit-identical)",
				s, gotRes.Losses[s], refRes.Losses[s])
		}
	}
}

// TestShrinkLayout4 pins the degradation order of the 4D axis: data
// replicas go first (pure throughput), then pipeline stages (lossless
// to reshard), then FSDP chunks; TP is structural and never shrinks.
func TestShrinkLayout4(t *testing.T) {
	cases := []struct {
		in    pp.Layout
		ranks int
		want  pp.Layout
	}{
		{pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 4}, 32, pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 4}},
		{pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 4}, 16, pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 2}},
		{pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 4}, 8, pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 1}},
		{pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 4}, 4, pp.Layout{TP: 2, PP: 1, FSDP: 2, DDP: 1}},
		{pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 4}, 2, pp.Layout{TP: 2, PP: 1, FSDP: 1, DDP: 1}},
		{pp.Layout{TP: 1, PP: 4, FSDP: 1, DDP: 1}, 2, pp.Layout{TP: 1, PP: 2, FSDP: 1, DDP: 1}},
		{pp.Layout{TP: 1, PP: 3, FSDP: 2, DDP: 1}, 2, pp.Layout{TP: 1, PP: 1, FSDP: 2, DDP: 1}},
		// Unpipelined layouts: DDP halves before FSDP.
		{pp.Layout{TP: 2, PP: 1, FSDP: 4, DDP: 2}, 8, pp.Layout{TP: 2, PP: 1, FSDP: 4, DDP: 1}},
		{pp.Layout{TP: 2, PP: 1, FSDP: 4, DDP: 1}, 4, pp.Layout{TP: 2, PP: 1, FSDP: 2, DDP: 1}},
		{pp.Layout{TP: 1, PP: 1, FSDP: 1, DDP: 8}, 2, pp.Layout{TP: 1, PP: 1, FSDP: 1, DDP: 2}},
		{pp.Layout{TP: 2, PP: 1, FSDP: 1, DDP: 1}, 4, pp.Layout{TP: 2, PP: 1, FSDP: 1, DDP: 1}},
	}
	for _, tc := range cases {
		got, err := ShrinkLayout4(tc.in, tc.ranks)
		if err != nil {
			t.Fatalf("ShrinkLayout4(%+v, %d): %v", tc.in, tc.ranks, err)
		}
		if got != tc.want {
			t.Errorf("ShrinkLayout4(%+v, %d) = %+v, want %+v", tc.in, tc.ranks, got, tc.want)
		}
	}
	if _, err := ShrinkLayout4(pp.Layout{TP: 4, PP: 1, FSDP: 1, DDP: 1}, 2); err == nil {
		t.Fatal("expected an error when TP alone exceeds the rank budget")
	}
}

// TestAutoPlan4DRecovery drives the rebuild through the 4D planner: a
// pipelined job that loses a node re-plans with Best4 (TP pinned by
// the sharded checkpoint, PP free — stage regrouping is lossless) and
// must keep the fixed-global-batch determinism property against the
// uninterrupted run, whatever 4D layout the planner picks for the
// survivors.
func TestAutoPlan4DRecovery(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 2, DDP: 1}
	ref := elasticBase(t, layout, 2, 2)
	ref.PP = 2
	refRes, err := RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	auto := elasticBase(t, layout, 2, 2)
	auto.PP = 2
	auto.AutoPlan = true
	inj := cluster.NewFaultInjector()
	inj.KillNodeAtStep(1, 9)
	gotRes, err := RunElastic(auto, inj)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1 (events: %+v)", gotRes.Rebuilds, gotRes.Events)
	}
	if gotRes.FinalLayout.TP != layout.TP {
		t.Fatalf("auto-plan changed TP to %d; sharded checkpoints cannot reshard TP", gotRes.FinalLayout.TP)
	}
	if ranks := gotRes.FinalLayout.Ranks() * gotRes.FinalPP; ranks > 2 {
		t.Fatalf("auto-plan layout %+v × PP=%d needs %d ranks on a 2-GPU survivor",
			gotRes.FinalLayout, gotRes.FinalPP, ranks)
	}
	planned := false
	for _, ev := range gotRes.Events {
		if ev.Kind == "plan" {
			planned = true
		}
	}
	if !planned {
		t.Fatalf("no plan event recorded; events: %+v", gotRes.Events)
	}
	for s := 8; s < len(refRes.Losses); s++ {
		diff := math.Abs(gotRes.Losses[s] - refRes.Losses[s])
		tol := 1e-6 * math.Max(1, math.Abs(refRes.Losses[s]))
		if diff > tol {
			t.Fatalf("auto-plan post-rebuild step %d: |%v - %v| = %v > %v",
				s, gotRes.Losses[s], refRes.Losses[s], diff, tol)
		}
	}
}
