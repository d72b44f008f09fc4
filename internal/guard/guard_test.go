package guard

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"orbit/internal/ckpt"
	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/pp"
	"orbit/internal/train"
)

func baseElastic(t *testing.T, layout core.Layout, nodes, gpn int) train.ElasticConfig {
	t.Helper()
	return train.ElasticConfig{
		Layout: layout, Nodes: nodes, GPUsPerNode: gpn,
		Dim: 8, Heads: 2, Layers: 2, Tokens: 5,
		GlobalBatch: 4, LR: 1e-2, MinLR: 1e-3, WarmupSteps: 2,
		TotalSteps: 12, Seed: 3, DataSeed: 7,
		CkptDir: t.TempDir(), CkptEvery: 4,
		Opts: core.DefaultOptions(),
	}
}

// finalWeights loads a run's final checkpoint and reshards it to one
// stage and a single FSDP chunk per TP row: a layout-independent flat
// view for bit-exact comparison.
func finalWeights(t *testing.T, dir string) (int, [][]float32) {
	t.Helper()
	man, shards, _, err := ckpt.LoadShardedLatestValid(dir)
	if err != nil {
		t.Fatalf("loading final checkpoint from %s: %v", dir, err)
	}
	resh, err := ckpt.Reshard(man, shards, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var flat [][]float32
	for _, sh := range resh {
		for _, b := range sh.Blocks {
			flat = append(flat, b.W)
		}
	}
	return man.Step, flat
}

func wantSameWeights(t *testing.T, refDir, gotDir string) {
	t.Helper()
	refStep, ref := finalWeights(t, refDir)
	gotStep, got := finalWeights(t, gotDir)
	if refStep != gotStep {
		t.Fatalf("final checkpoint step %d, reference %d", gotStep, refStep)
	}
	if len(ref) != len(got) {
		t.Fatalf("final checkpoint has %d flats, reference %d", len(got), len(ref))
	}
	for b := range ref {
		if len(ref[b]) != len(got[b]) {
			t.Fatalf("flat %d length %d, reference %d", b, len(got[b]), len(ref[b]))
		}
		for i := range ref[b] {
			if ref[b][i] != got[b][i] {
				t.Fatalf("final weights differ at flat %d index %d: %v != %v (must be bit-identical)",
					b, i, got[b][i], ref[b][i])
			}
		}
	}
}

func wantSameLosses(t *testing.T, ref, got []float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("trajectory length %d, reference %d", len(got), len(ref))
	}
	for s := range ref {
		if got[s] != ref[s] {
			t.Fatalf("step %d loss %v != reference %v (must be bit-identical)", s, got[s], ref[s])
		}
	}
}

// TestSupervisedFaultFreeBitIdentical pins the zero-interference
// property: a supervised fault-free run — sentinel armed, watchdog
// running — produces the exact trajectory of an unsupervised one.
func TestSupervisedFaultFreeBitIdentical(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 2, DDP: 1}
	ref := baseElastic(t, layout, 1, 4)
	refRes, err := train.RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	sup := baseElastic(t, layout, 1, 4)
	res, err := Run(Config{Elastic: sup, StepDeadline: 5 * time.Second})
	if err != nil {
		t.Fatalf("%v (events: %+v)", err, res.Events)
	}
	if res.Rollbacks != 0 || res.WatchdogKills != 0 {
		t.Fatalf("fault-free run: Rollbacks=%d WatchdogKills=%d, want 0/0", res.Rollbacks, res.WatchdogKills)
	}
	wantSameLosses(t, refRes.Losses, res.Losses)
	wantSameWeights(t, ref.CkptDir, sup.CkptDir)
}

// TestDivergenceRollbackRecovers hits step 6 with a transient NaN
// gradient. The sentinel vetoes the step before the optimizer applies
// it; the run rolls back to the step-4 checkpoint and replays clean —
// so the full trajectory is bit-identical to a fault-free run. The
// same poison applied to an unguarded run destroys the weights and
// every subsequent loss.
func TestDivergenceRollbackRecovers(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 1, DDP: 2}
	ref := baseElastic(t, layout, 1, 4)
	refRes, err := train.RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	poison := func(attempt *int) *train.Hooks {
		return &train.Hooks{GradHook: func(step int, _ uint64, rank int, grads [][]float32) {
			if step != 6 {
				return
			}
			if rank == 0 {
				*attempt++
			}
			if *attempt == 1 {
				grads[0][0] = float32(math.NaN())
			}
		}}
	}

	sup := baseElastic(t, layout, 1, 4)
	sup.Keep = 2
	attempt := 0
	sup.Hooks = poison(&attempt)
	res, err := Run(Config{Elastic: sup})
	if err != nil {
		t.Fatalf("%v (events: %+v)", err, res.Events)
	}
	if res.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1 (events: %+v)", res.Rollbacks, res.Events)
	}
	wantSameLosses(t, refRes.Losses, res.Losses)
	wantSameWeights(t, ref.CkptDir, sup.CkptDir)

	// The unguarded control: same poison, no supervisor. The NaN
	// gradient is applied, weights go non-finite, and the run never
	// recovers.
	ung := baseElastic(t, layout, 1, 4)
	ung.Hooks = &train.Hooks{GradHook: func(step int, _ uint64, _ int, grads [][]float32) {
		if step == 6 {
			grads[0][0] = float32(math.NaN())
		}
	}}
	ungRes, err := train.RunElastic(ung, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := ungRes.Losses[len(ungRes.Losses)-1]
	if !math.IsNaN(last) {
		t.Fatalf("unguarded poisoned run ended with loss %v, expected NaN divergence", last)
	}
	guardedLast := res.Losses[len(res.Losses)-1]
	if math.IsNaN(guardedLast) || guardedLast >= res.Losses[0] {
		t.Fatalf("guarded run did not converge: first %v last %v", res.Losses[0], guardedLast)
	}
}

// TestDataDependentDivergenceSalted poisons step 6 whenever it sees
// the step's ORIGINAL data seed — the model of a reproducible bad
// batch. The first rollback replays the same seed and diverges again;
// the supervisor then salts the window, the replay sees different
// data, and the run completes. Exactly two rollbacks.
func TestDataDependentDivergenceSalted(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 1, DDP: 2}
	sup := baseElastic(t, layout, 1, 4)
	sup.Keep = 2
	var badSeed uint64
	var have bool
	sup.Hooks = &train.Hooks{GradHook: func(step int, seed uint64, _ int, grads [][]float32) {
		if step != 6 {
			return
		}
		if !have {
			badSeed, have = seed, true
		}
		if seed == badSeed {
			grads[0][0] = float32(math.Inf(1))
		}
	}}
	res, err := Run(Config{Elastic: sup})
	if err != nil {
		t.Fatalf("%v (events: %+v)", err, res.Events)
	}
	if res.Rollbacks != 2 {
		t.Fatalf("Rollbacks = %d, want 2 (plain replay + salted replay); events: %+v", res.Rollbacks, res.Events)
	}
	salted := false
	for _, ev := range res.Events {
		if ev.Kind == "salt" {
			salted = true
		}
	}
	if !salted {
		t.Fatalf("no salt event; events: %+v", res.Events)
	}
	for s, l := range res.Losses {
		if l == 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("step %d loss %v after salted recovery", s, l)
		}
	}
}

// TestRollbackBudgetExhausted poisons step 6 unconditionally: neither
// a plain replay nor a salted one can pass, so the supervisor must
// give up with the divergence as the cause — not loop forever.
func TestRollbackBudgetExhausted(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 1, DDP: 2}
	sup := baseElastic(t, layout, 1, 4)
	sup.Keep = 2
	sup.Hooks = &train.Hooks{GradHook: func(step int, _ uint64, _ int, grads [][]float32) {
		if step == 6 {
			grads[0][0] = float32(math.NaN())
		}
	}}
	res, err := Run(Config{Elastic: sup, MaxRollbacks: 2})
	if err == nil {
		t.Fatal("expected an error once the rollback budget is exhausted")
	}
	if res.Rollbacks != 2 {
		t.Fatalf("Rollbacks = %d, want 2", res.Rollbacks)
	}
	gaveUp := false
	for _, ev := range res.Events {
		if ev.Kind == "giveup" {
			gaveUp = true
		}
	}
	if !gaveUp {
		t.Fatalf("no giveup event; events: %+v", res.Events)
	}
}

// TestRunRejectsNegativeLimits: a negative StepDeadline would silently
// turn the watchdog off and a negative MaxRollbacks would give up at the
// first divergence; both are errors before any step runs.
func TestRunRejectsNegativeLimits(t *testing.T) {
	for _, cfg := range []Config{
		{StepDeadline: -time.Second},
		{StepDeadline: -1},
		{MaxRollbacks: -1},
		{StepDeadline: time.Second, MaxRollbacks: -3},
	} {
		cfg.Elastic = baseElastic(t, core.Layout{TP: 1, FSDP: 1, DDP: 1}, 1, 1)
		res, err := Run(cfg)
		if err == nil || !strings.HasPrefix(err.Error(), "guard: negative ") {
			t.Errorf("deadline %v, rollbacks %d: error %v, want a negative-limit error", cfg.StepDeadline, cfg.MaxRollbacks, err)
		}
		if res == nil || len(res.Runs) != 0 {
			t.Errorf("deadline %v, rollbacks %d: result %+v, want an empty one", cfg.StepDeadline, cfg.MaxRollbacks, res)
		}
	}
}

// TestWatchdogRecoversStalledRank stalls an active rank's device
// mid-run: health checks keep passing, every collective blocks, and
// only the watchdog's no-progress deadline can see it. The kill
// converts the hang into a device death, the elastic path rebuilds on
// the spare node at the SAME layout, and the resumed trajectory —
// and the final weights — are bit-identical to a fault-free run.
func TestWatchdogRecoversStalledRank(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 1, DDP: 2}
	ref := baseElastic(t, layout, 2, 4)
	refRes, err := train.RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	sup := baseElastic(t, layout, 2, 4)
	inj := cluster.NewFaultInjector()
	inj.StallDeviceAtStep(1, 9)
	res, err := Run(Config{Elastic: sup, Inj: inj, StepDeadline: 150 * time.Millisecond})
	if err != nil {
		t.Fatalf("%v (events: %+v, elastic: %+v)", err, res.Events, res.Elastic.Events)
	}
	if res.WatchdogKills != 1 {
		t.Fatalf("WatchdogKills = %d, want 1 (events: %+v)", res.WatchdogKills, res.Events)
	}
	if res.Elastic.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", res.Elastic.Rebuilds)
	}
	if res.Elastic.FinalLayout.Inner() != layout {
		t.Fatalf("layout changed to %+v on a machine that still fits %+v", res.Elastic.FinalLayout, layout)
	}
	wantSameLosses(t, refRes.Losses, res.Losses)
	wantSameWeights(t, ref.CkptDir, sup.CkptDir)
}

// TestWatchdogRecoversStalledTPRank is the -race variant on a
// Hybrid-STOP grid: a stalled TP rank strands its TP peer at a
// rendezvous and, transitively, the whole grid. The watchdog must
// identify the stalled rank (parked in a device op, NOT a collective
// wait), shoot it, and let the poison-unwind tear the step down
// without deadlock.
func TestWatchdogRecoversStalledTPRank(t *testing.T) {
	layout := core.Layout{TP: 2, FSDP: 2, DDP: 1}
	ref := baseElastic(t, layout, 2, 4)
	refRes, err := train.RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	sup := baseElastic(t, layout, 2, 4)
	inj := cluster.NewFaultInjector()
	inj.StallDeviceAtStep(2, 9)
	res, err := Run(Config{Elastic: sup, Inj: inj, StepDeadline: 150 * time.Millisecond})
	if err != nil {
		t.Fatalf("%v (events: %+v, elastic: %+v)", err, res.Events, res.Elastic.Events)
	}
	if res.WatchdogKills != 1 {
		t.Fatalf("WatchdogKills = %d, want 1 (events: %+v)", res.WatchdogKills, res.Events)
	}
	wantSameLosses(t, refRes.Losses, res.Losses)
	wantSameWeights(t, ref.CkptDir, sup.CkptDir)
}

// corruptNewestShard bit-flips one byte in the middle of a generation's
// shard file.
func corruptNewestShard(t *testing.T, dir string, step int) {
	t.Helper()
	path := filepath.Join(dir, ckpt.ShardFileName(step, 0, 0, 0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("corrupting %s: %v", path, err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptCheckpointQuarantineFallback kills the active node, then
// flips a bit in the newest retained checkpoint generation before the
// rebuild loads it. The integrity check must catch the flip (typed
// CorruptError, never silently-wrong weights), quarantine the
// generation, and fall back to the previous one — after which the
// replayed trajectory and final weights are bit-identical to a
// fault-free run.
func TestCorruptCheckpointQuarantineFallback(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 1, DDP: 2}
	ref := baseElastic(t, layout, 2, 4)
	ref.CkptEvery = 2
	refRes, err := train.RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	sup := baseElastic(t, layout, 2, 4)
	sup.CkptEvery = 2
	sup.Keep = 2
	builds := 0
	sup.Hooks = &train.Hooks{OnBuild: func(_ *cluster.Machine, _ pp.Layout) {
		builds++
		if builds == 2 {
			corruptNewestShard(t, sup.CkptDir, 8)
		}
	}}
	inj := cluster.NewFaultInjector()
	inj.KillNodeAtStep(0, 9)
	res, err := Run(Config{Elastic: sup, Inj: inj})
	if err != nil {
		t.Fatalf("%v (events: %+v, elastic: %+v)", err, res.Events, res.Elastic.Events)
	}
	quarantined := false
	for _, ev := range res.Elastic.Events {
		if ev.Kind == "quarantine" {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("no quarantine event; elastic events: %+v", res.Elastic.Events)
	}
	wantSameLosses(t, refRes.Losses, res.Losses)
	wantSameWeights(t, ref.CkptDir, sup.CkptDir)
}

// TestGuardianEndToEnd is the acceptance run: ONE supervised job hit
// with all three fault classes —
//
//  1. a node death at step 5 followed by a bit-flipped newest
//     checkpoint generation (recovered by quarantine-fallback),
//  2. a transient NaN gradient at step 9 (recovered by
//     rollback-and-replay),
//  3. a stalled rank at step 13 (recovered by watchdog kill and
//     elastic rebuild)
//
// — and it must complete with losses AND final weights bit-identical
// to a fault-free run, because every recovery is exact: same layout
// (spare nodes), same data seeds, no weight mutation ever survived a
// fault.
func TestGuardianEndToEnd(t *testing.T) {
	layout := core.Layout{TP: 1, FSDP: 1, DDP: 2}
	ref := baseElastic(t, layout, 3, 4)
	ref.TotalSteps = 16
	ref.CkptEvery = 2
	refRes, err := train.RunElastic(ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	sup := baseElastic(t, layout, 3, 4)
	sup.TotalSteps = 16
	sup.CkptEvery = 2
	sup.Keep = 2
	builds := 0
	attempt := 0
	sup.Hooks = &train.Hooks{
		OnBuild: func(_ *cluster.Machine, _ pp.Layout) {
			builds++
			if builds == 2 {
				// The post-kill rebuild is about to load generation s4:
				// flip a bit in it first.
				corruptNewestShard(t, sup.CkptDir, 4)
			}
		},
		GradHook: func(step int, _ uint64, rank int, grads [][]float32) {
			if step != 9 {
				return
			}
			if rank == 0 {
				attempt++
			}
			if attempt == 1 {
				grads[0][0] = float32(math.NaN())
			}
		},
	}
	inj := cluster.NewFaultInjector()
	inj.KillNodeAtStep(0, 5)
	inj.StallDeviceAtStep(1, 13)
	res, err := Run(Config{Elastic: sup, Inj: inj, StepDeadline: 150 * time.Millisecond})
	if err != nil {
		t.Fatalf("%v (events: %+v, elastic: %+v)", err, res.Events, res.Elastic.Events)
	}
	if res.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1 (events: %+v)", res.Rollbacks, res.Events)
	}
	if res.WatchdogKills != 1 {
		t.Fatalf("WatchdogKills = %d, want 1 (events: %+v)", res.WatchdogKills, res.Events)
	}
	quarantined := false
	for _, er := range res.Runs {
		for _, ev := range er.Events {
			if ev.Kind == "quarantine" {
				quarantined = true
			}
		}
	}
	if !quarantined {
		t.Fatal("no quarantine event across attempts")
	}
	wantSameLosses(t, refRes.Losses, res.Losses)
	wantSameWeights(t, ref.CkptDir, sup.CkptDir)
}
