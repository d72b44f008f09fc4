package train

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/plan"
	"orbit/internal/tensor"
)

func elasticBase(t *testing.T, layout core.Layout, nodes, gpn int) ElasticConfig {
	t.Helper()
	return ElasticConfig{
		Layout: layout, Nodes: nodes, GPUsPerNode: gpn,
		Dim: 8, Heads: 2, Layers: 2, Tokens: 5,
		GlobalBatch: 4, LR: 1e-2, MinLR: 1e-3, WarmupSteps: 2,
		TotalSteps: 12, Seed: 3, DataSeed: 7,
		CkptDir: t.TempDir(), CkptEvery: 4,
		Opts: core.DefaultOptions(),
	}
}

// testKillResumeBitIdentical is the tentpole property: killing the
// active node at step 9 (after a checkpoint at step 8) and resuming at
// the SAME layout must reproduce the uninterrupted loss trajectory
// bit-for-bit, including the replayed steps.
func testKillResumeBitIdentical(t *testing.T, layout core.Layout) {
	t.Helper()
	ref := elasticBase(t, layout, 2, 4)
	refRes, err := RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	faulted := elasticBase(t, layout, 2, 4)
	inj := cluster.NewFaultInjector()
	inj.KillNodeAtStep(0, 9)
	gotRes, err := RunElastic(faulted, inj)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1 (events: %+v)", gotRes.Rebuilds, gotRes.Events)
	}
	if gotRes.FinalLayout.Inner() != layout {
		t.Fatalf("layout changed to %+v on a machine that still fits %+v", gotRes.FinalLayout, layout)
	}
	if gotRes.FinalNodes != 1 {
		t.Fatalf("FinalNodes = %d, want 1", gotRes.FinalNodes)
	}
	for s := range refRes.Losses {
		if gotRes.Losses[s] != refRes.Losses[s] {
			t.Fatalf("step %d loss %v != uninterrupted %v (must be bit-identical)",
				s, gotRes.Losses[s], refRes.Losses[s])
		}
	}
	// Sanity: training is actually learning something.
	if refRes.Losses[len(refRes.Losses)-1] >= refRes.Losses[0] {
		t.Errorf("loss did not decrease: %v -> %v", refRes.Losses[0], refRes.Losses[len(refRes.Losses)-1])
	}
}

func TestKillResumeBitIdenticalDDP(t *testing.T) {
	testKillResumeBitIdentical(t, core.Layout{TP: 1, FSDP: 1, DDP: 2})
}

func TestKillResumeBitIdenticalFSDP(t *testing.T) {
	testKillResumeBitIdentical(t, core.Layout{TP: 1, FSDP: 2, DDP: 1})
}

func TestKillResumeBitIdenticalHybridSTOP(t *testing.T) {
	testKillResumeBitIdentical(t, core.Layout{TP: 2, FSDP: 2, DDP: 1})
}

// TestKillReshardResume16To8 is the layout-change property: a 16-rank
// Hybrid-STOP run (TP=2, FSDP=4, DDP=2) loses a node, so its layout no
// longer fits the surviving 8 devices. The rebuild adopts the planner's
// layout for them (TP pinned), the FSDP chunks reshard, and the loss
// trajectory matches the uninterrupted 16-rank run within 1e-6 — the
// only divergence source is float32 reduction grouping.
func TestKillReshardResume16To8(t *testing.T) {
	layout := core.Layout{TP: 2, FSDP: 4, DDP: 2}
	ref := elasticBase(t, layout, 2, 8)
	ref.GlobalBatch = 8
	refRes, err := RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	faulted := elasticBase(t, layout, 2, 8)
	faulted.GlobalBatch = 8
	inj := cluster.NewFaultInjector()
	inj.KillNodeAtStep(1, 9)
	gotRes, err := RunElastic(faulted, inj)
	if err != nil {
		t.Fatal(err)
	}
	wantReplanned(t, faulted, gotRes, 1)
	// Pre-fault steps ran at the original layout: bit-identical.
	for s := 0; s < 8; s++ {
		if gotRes.Losses[s] != refRes.Losses[s] {
			t.Fatalf("pre-fault step %d diverged: %v != %v", s, gotRes.Losses[s], refRes.Losses[s])
		}
	}
	// Replayed + post-resume steps ran on half the ranks: within 1e-6.
	if err := lossesNear(refRes.Losses, gotRes.Losses); err != nil {
		t.Fatalf("post-reshard %v", err)
	}
}

// TestAutoPlanRecovery pins when the rebuild consults the planner: only
// when the layout no longer fits the survivors. An 8-rank Hybrid-STOP
// job on two 8-GPU nodes loses a node and still fits, so it keeps its
// layout and records no plan event. The same job at 16 ranks does not
// fit; it adopts plan.Best4's layout with TP kept and PP held at 1
// (the job is unpipelined), and its loss trajectory stays within 1e-6
// of the uninterrupted run.
func TestAutoPlanRecovery(t *testing.T) {
	kill := func(cfg ElasticConfig) *ElasticResult {
		t.Helper()
		inj := cluster.NewFaultInjector()
		inj.KillNodeAtStep(1, 9)
		res, err := RunElastic(cfg, inj)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fits := core.Layout{TP: 2, FSDP: 4, DDP: 1}
	kept := kill(elasticBase(t, fits, 2, 8))
	if kept.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1 (events: %+v)", kept.Rebuilds, kept.Events)
	}
	for _, ev := range kept.Events {
		if ev.Kind == "plan" {
			t.Fatalf("planner consulted although %+v fits the survivors: %+v", fits, ev)
		}
	}
	if kept.FinalLayout.Inner() != fits || kept.FinalLayout.PP != 1 {
		t.Fatalf("layout changed to %+v on a machine that still fits %+v", kept.FinalLayout, fits)
	}

	layout := core.Layout{TP: 2, FSDP: 4, DDP: 2}
	ref := elasticBase(t, layout, 2, 8)
	ref.GlobalBatch = 8
	refRes, err := RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulted := elasticBase(t, layout, 2, 8)
	faulted.GlobalBatch = 8
	gotRes := kill(faulted)
	wantReplanned(t, faulted, gotRes, 1)
	if gotRes.FinalLayout.PP != 1 {
		t.Fatalf("unpipelined job replanned to PP=%d", gotRes.FinalLayout.PP)
	}
	if err := lossesNear(refRes.Losses, gotRes.Losses); err != nil {
		t.Fatalf("replanned %v", err)
	}
}

// wantReplanned checks a run whose one rebuild left a machine of
// `nodes` nodes that its layout no longer fits: the rebuild consulted
// the planner, kept TP, fits the survivors, and ended on exactly the
// layout plan.Best4 picks for them.
func wantReplanned(t *testing.T, cfg ElasticConfig, res *ElasticResult, nodes int) {
	t.Helper()
	if res.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1 (events: %+v)", res.Rebuilds, res.Events)
	}
	planned := false
	for _, ev := range res.Events {
		planned = planned || ev.Kind == "plan"
	}
	if !planned {
		t.Fatalf("no plan event recorded; events: %+v", res.Events)
	}
	if res.FinalLayout.TP != cfg.Layout.TP {
		t.Fatalf("rebuild changed TP to %d; sharded checkpoints cannot reshard TP", res.FinalLayout.TP)
	}
	if ranks := res.FinalLayout.Ranks(); ranks > nodes*cfg.GPUsPerNode {
		t.Fatalf("layout %+v needs %d ranks on %d surviving devices", res.FinalLayout, ranks, nodes*cfg.GPUsPerNode)
	}
	cons := plan.Constraints{FixTP: cfg.Layout.TP}
	if cfg.PP <= 1 {
		cons.FixPP = 1
	}
	j := &elasticJob{cfg: cfg}
	best, err := plan.Best4(cfg.workload(), plan.ClusterShape{Nodes: nodes, GPUsPerNode: cfg.GPUsPerNode, Spec: j.spec()}, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLayout != best.Layout {
		t.Fatalf("final layout %+v, planner's %+v", res.FinalLayout, best.Layout)
	}
}

// lossesNear holds a trajectory to a reference within 1e-6 (relative
// above 1), the float32 reduction-grouping envelope of a layout change.
// A NaN loss fails it.
func lossesNear(ref, got []float64) error {
	for s := range ref {
		diff := math.Abs(got[s] - ref[s])
		if tol := 1e-6 * math.Max(1, math.Abs(ref[s])); !(diff <= tol) {
			return fmt.Errorf("step %d: |%v - %v| = %v > %v", s, got[s], ref[s], diff, tol)
		}
	}
	return nil
}

// TestColdResumeContinuesTrajectory stops a run (as a process exit
// would) and restarts it with Resume set; the continued trajectory
// must match an uninterrupted run bit-identically.
func TestColdResumeContinuesTrajectory(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 2, DDP: 1}
	ref := elasticBase(t, layout, 1, 4)
	refRes, err := RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	first := elasticBase(t, layout, 1, 4)
	first.TotalSteps = 8     // checkpoint lands exactly at step 8
	first.ScheduleSteps = 12 // the job's horizon, not this process's
	if _, err := RunElastic(first, nil); err != nil {
		t.Fatal(err)
	}
	second := first
	second.TotalSteps = 12
	second.Resume = true
	secondRes, err := RunElastic(second, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := 8; s < 12; s++ {
		if secondRes.Losses[s] != refRes.Losses[s] {
			t.Fatalf("cold-resumed step %d loss %v != uninterrupted %v", s, secondRes.Losses[s], refRes.Losses[s])
		}
	}
	for s := 0; s < 8; s++ {
		if secondRes.Losses[s] != 0 {
			t.Errorf("step %d was not executed by the resumed run but has loss %v", s, secondRes.Losses[s])
		}
	}
}

// TestFaultWithoutCheckpointRestartsFromScratch covers the no-ckpt
// path: with checkpointing disabled, a fault restarts training from
// step 0 and still finishes all steps.
func TestFaultWithoutCheckpointRestartsFromScratch(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 1, DDP: 2}
	cfg := elasticBase(t, layout, 2, 4)
	cfg.CkptEvery = 0
	cfg.TotalSteps = 6
	inj := cluster.NewFaultInjector()
	inj.KillNodeAtStep(0, 3)
	res, err := RunElastic(cfg, inj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", res.Rebuilds)
	}
	restarted := false
	for _, e := range res.Events {
		if e.Kind == "restart" {
			restarted = true
		}
	}
	if !restarted {
		t.Error("expected a restart event when no checkpoint exists")
	}
	for s, l := range res.Losses {
		if l == 0 {
			t.Errorf("step %d never completed after restart", s)
		}
	}
}

// TestSimultaneousNodeFaultsAllCounted kills two of three nodes at the
// same step; the rebuild must drop BOTH (a resurrected dead node would
// silently train on hardware that no longer exists).
func TestSimultaneousNodeFaultsAllCounted(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 1, DDP: 2}
	cfg := elasticBase(t, layout, 3, 2)
	inj := cluster.NewFaultInjector()
	inj.KillNodeAtStep(0, 5)
	inj.KillNodeAtStep(1, 5)
	res, err := RunElastic(cfg, inj)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalNodes != 1 {
		t.Fatalf("FinalNodes = %d, want 1 (both dead nodes must be dropped)", res.FinalNodes)
	}
	if res.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", res.Rebuilds)
	}
	// Trajectory still matches the uninterrupted run bit-for-bit.
	ref := elasticBase(t, layout, 3, 2)
	refRes, err := RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := range refRes.Losses {
		if res.Losses[s] != refRes.Losses[s] {
			t.Fatalf("step %d loss diverged after double-node fault", s)
		}
	}
}

// TestEngineSurfacesDeadDevice pins the error-surfacing contract: a
// killed device makes the engine's Forward return *DeadDeviceError
// through the same path OOM uses.
func TestEngineSurfacesDeadDevice(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 1, DDP: 1}
	m := cluster.NewMachine(cluster.Frontier(), 1, 1)
	groups, err := core.BuildGroups(layout, m)
	if err != nil {
		t.Fatal(err)
	}
	j := &elasticJob{cfg: ElasticConfig{Dim: 8, Heads: 2, Layers: 2, Tokens: 5, Seed: 1}}
	e, err := core.NewEngine(0, layout, groups[0], j.refStack(), core.DefaultOptions(), m.Devices[0])
	if err != nil {
		t.Fatal(err)
	}
	m.KillDevice(0)
	x := tensor.New(5, 8)
	elasticSample(x, 1, 0)
	_, err = e.Forward(x)
	var dead *cluster.DeadDeviceError
	if !errors.As(err, &dead) {
		t.Fatalf("Forward on killed device: got %v, want DeadDeviceError", err)
	}
}

// TestRunElasticNoNodesLeft exhausts the machine and expects a clean
// error instead of a hang.
func TestRunElasticNoNodesLeft(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 1, DDP: 1}
	cfg := elasticBase(t, layout, 1, 1)
	inj := cluster.NewFaultInjector()
	inj.KillNodeAtStep(0, 2)
	if _, err := RunElastic(cfg, inj); err == nil {
		t.Fatal("expected an error when the last node dies")
	}
}

// TestRunElasticTPNotDividingHeads: an explicit layout whose TP does
// not divide the head count is an error naming both, not a panic from
// the tensor-parallel shard cut.
func TestRunElasticTPNotDividingHeads(t *testing.T) {
	cfg := elasticBase(t, core.Layout{TP: 3, FSDP: 1, DDP: 1}, 0, 0)
	cfg.Dim, cfg.Heads = 8, 4
	_, err := RunElastic(cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "4 heads") || !strings.Contains(err.Error(), "TP size 3") {
		t.Fatalf("RunElastic with TP 3 over 4 heads: got %v, want an error naming the heads and the TP size", err)
	}
}

// TestRunElasticRejectsBadStack: a stack shape plan.Workload.Validate
// refuses is an error from RunElastic, not a panic in tensor or nn.
func TestRunElasticRejectsBadStack(t *testing.T) {
	for _, tc := range []struct {
		set  func(*ElasticConfig)
		want string
	}{
		{func(c *ElasticConfig) { c.Dim = -8 }, "positive Dim/Heads/Layers/Tokens"},
		{func(c *ElasticConfig) { c.Heads = 0 }, "positive Dim/Heads/Layers/Tokens"},
		{func(c *ElasticConfig) { c.Layers = -1 }, "positive Dim/Heads/Layers/Tokens"},
		{func(c *ElasticConfig) { c.Tokens = -5 }, "positive Dim/Heads/Layers/Tokens"},
		{func(c *ElasticConfig) { c.Dim, c.Heads = 10, 4 }, "dim 10 not divisible by 4 heads"},
		{func(c *ElasticConfig) { c.GlobalBatch = 0 }, "positive GlobalBatch"},
		{func(c *ElasticConfig) { c.TotalSteps = 0 }, "needs TotalSteps"},
	} {
		cfg := elasticBase(t, core.Layout{TP: 1, FSDP: 1, DDP: 1}, 1, 1)
		tc.set(&cfg)
		if _, err := RunElastic(cfg, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("dim %d, heads %d, layers %d, tokens %d, batch %d, steps %d: error %v, want %q",
				cfg.Dim, cfg.Heads, cfg.Layers, cfg.Tokens, cfg.GlobalBatch, cfg.TotalSteps, err, tc.want)
		}
	}
}
