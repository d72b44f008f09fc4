package train

import (
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/core"
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
	if gotRes.FinalLayout.PP != 2 {
		t.Fatalf("final PP = %d, want 2", gotRes.FinalLayout.PP)
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
// mid-run. Its layout no longer fits the two surviving devices, so the
// rebuild adopts the planner's layout (TP pinned, PP free) and the
// checkpoint is resharded across PP — two single-block stage shards
// regrouped into one two-block stage. The machine runs at 1e-4 of
// Frontier's compute, where the plan keeps two data ranks; a two-way
// sum does not depend on how the two ranks reduce it, so the resumed
// run must match the uninterrupted PP=2 run bit-for-bit, replayed
// steps included.
func TestKillStageNodeReshardsAcrossPP(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 2, DDP: 1}
	ref := elasticBase(t, layout, 2, 2)
	ref.PP = 2
	ref.ComputeScale = 1e-4
	refRes, err := RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	faulted := ref
	faulted.CkptDir = t.TempDir()
	inj := cluster.NewFaultInjector()
	inj.KillNodeAtStep(1, 9) // devices 2,3 = stage 1 of the pipeline
	gotRes, err := RunElastic(faulted, inj)
	if err != nil {
		t.Fatal(err)
	}
	wantReplanned(t, faulted, gotRes, 1)
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
	if gotRes.FinalLayout.PP != 2 {
		t.Fatalf("final PP = %d, want 2 (spare node keeps the pipeline alive)", gotRes.FinalLayout.PP)
	}
	for s := range refRes.Losses {
		if gotRes.Losses[s] != refRes.Losses[s] {
			t.Fatalf("step %d: resumed-on-spare loss %v != uninterrupted %v (must be bit-identical)",
				s, gotRes.Losses[s], refRes.Losses[s])
		}
	}
}

// TestAutoPlan4DRecovery runs the kill-a-stage scenario on a machine at
// Frontier's full compute. There the planner gives the survivors a
// different split than on the 1e-4 machine of
// TestKillStageNodeReshardsAcrossPP (one rank rather than two data
// ranks), so the regrouped stages also change their reduction
// grouping. The rebuild must adopt exactly plan.Best4's 4D layout (TP
// pinned, PP free) and hold the fixed-global-batch trajectory within
// 1e-6 of the uninterrupted PP=2 run.
func TestAutoPlan4DRecovery(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 2, DDP: 1}
	ref := elasticBase(t, layout, 2, 2)
	ref.PP = 2
	refRes, err := RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	faulted := ref
	faulted.CkptDir = t.TempDir()
	inj := cluster.NewFaultInjector()
	inj.KillNodeAtStep(1, 9)
	gotRes, err := RunElastic(faulted, inj)
	if err != nil {
		t.Fatal(err)
	}
	wantReplanned(t, faulted, gotRes, 1)
	if err := lossesNear(refRes.Losses, gotRes.Losses); err != nil {
		t.Fatalf("replanned 4D %v", err)
	}
}
