package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/guard"
	"orbit/internal/plan"
	"orbit/internal/pp"
	"orbit/internal/train"
)

// The training stack both train workloads share: a toy-sized
// transformer whose simulated devices are scaled down (ComputeScale)
// so the compute-to-communication ratio is production-like.
const (
	trainDim, trainHeads, trainLayers, trainTokens = 64, 4, 4, 32
	trainBatch                                     = 8
	trainComputeScale                              = 1e-3
	trainSetupSteps                                = 5    // steps a set-up trial runs after the build
	trainCkptEvery                                 = 50   // ≈ 8 checkpoints in a 15 s window
	trainMaxSteps                                  = 4000 // upper bound; the window ends the run
	trainSchedule                                  = 1000 // cosine horizon, fixed so LR(step) never depends on the window
	watchdogDeadline                               = 5 * time.Second
)

// Variables only so that the scaled-down test run can shrink them.
var (
	trainWarmSteps   = 20 // discarded before the measured window
	trainVerifySteps = 12 // steps the reference runs replay
)

var errWindowDone = errors.New("bench: measured window complete")

// trainLayout is the 4D grid of a train workload: every axis live for
// train_hybrid4d, the plain single worker for train_single.
func trainLayout(hybrid bool) pp.Layout {
	if hybrid {
		return pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 1}
	}
	return pp.Layout{TP: 1, PP: 1, FSDP: 1, DDP: 1}
}

func trainOpts() core.Options {
	return core.Options{LayerWrapping: true, ActivationCheckpoint: true}
}

func trainConfig(seed uint64, hybrid bool) train.ElasticConfig {
	l := trainLayout(hybrid)
	return train.ElasticConfig{
		Layout: l.Inner(), PP: l.PP, Nodes: 1, GPUsPerNode: 8,
		ComputeScale: trainComputeScale,
		Dim:          trainDim, Heads: trainHeads, Layers: trainLayers, Tokens: trainTokens,
		GlobalBatch: trainBatch,
		WarmupSteps: 10, TotalSteps: trainMaxSteps, ScheduleSteps: trainSchedule,
		Seed: seed, Opts: trainOpts(),
	}
}

// arm is one RunElastic invocation and what the hooks saw of it.
type arm struct {
	hybrid  bool
	guarded bool          // under guard.Run with the watchdog armed
	ckptDir string        // "" = no checkpoints
	steps   int           // > 0: run exactly this many steps
	window  time.Duration // else: trainWarmSteps, then this long
	tr      *tracer       // non-nil adds the per-rank beat and grad hooks

	stamps []time.Time // OnStep time, indexed by step
	refMs  []float64   // reference-kernel time, run inside OnStep right after the stamp
	clocks []float64   // Machine.MaxClock at OnStep: the simulated clock
	flops  []int64     // Machine.TotalFLOPs at OnStep
	// Σ CommTime and Σ Clock over the ranks at OnStep(trainVerifySteps-1).
	simComm, simClock float64
	losses            []float64
	machine           *cluster.Machine
	ranks             int

	// Traced detail, indexed by step (applyMs[s] is step s's apply piece,
	// known once step s+1 has begun).
	beats                    []beat
	tGrad, tStep             time.Time
	fwdbwdMs, hookMs, skewMs []float64
	applyMs                  []float64
	mallocs                  uint64 // heap allocations over the window
}

// beat is one rank's heartbeat slot, written only by that rank's
// goroutine and read on the host between step phases (RunElastic's
// WaitGroup orders the two). Padded to a cache line.
type beat struct {
	step        int
	first, last time.Time
	_           [8]byte
}

func (a *arm) hooks() *train.Hooks {
	h := &train.Hooks{
		OnBuild: func(m *cluster.Machine, l pp.Layout) {
			a.machine, a.ranks = m, l.Ranks()
			a.beats = make([]beat, a.ranks)
		},
		OnStep: a.onStep,
	}
	if a.tr != nil {
		h.OnBeat = func(rank, step int) {
			b, now := &a.beats[rank], time.Now()
			if b.step != step || b.first.IsZero() {
				b.step, b.first = step, now
			}
			b.last = now
		}
		h.GradHook = func(step int, _ uint64, rank int, _ [][]float32) {
			if rank == 0 {
				a.afterAccumulate(step)
			}
		}
	}
	return h
}

// afterAccumulate runs on the host once every rank finished its
// forward/backward: it closes the step's fwdbwd piece and the previous
// step's apply piece.
func (a *arm) afterAccumulate(step int) {
	a.tGrad = time.Now()
	first, lastMin, lastMax := a.beats[0].first, a.beats[0].last, a.beats[0].last
	for r := range a.beats {
		b := &a.beats[r]
		if b.first.Before(first) {
			first = b.first
		}
		if b.last.Before(lastMin) {
			lastMin = b.last
		}
		if b.last.After(lastMax) {
			lastMax = b.last
		}
		a.tr.add("rank.active", b.first, b.last, 0, step, 1+r)
	}
	if step > 0 {
		// The reference kernel ran at the head of this piece; take it out.
		a.applyMs = append(a.applyMs, ms(first.Sub(a.tStep))-a.refMs[step-1])
		a.tr.add("train.apply", a.tStep, first, 0, step-1, 0)
	}
	a.fwdbwdMs = append(a.fwdbwdMs, ms(a.tGrad.Sub(first)))
	a.skewMs = append(a.skewMs, ms(lastMax.Sub(lastMin)))
	a.tr.add("train.fwdbwd", first, a.tGrad, 0, step, 0)
}

func (a *arm) onStep(step int, loss, _ float64) error {
	now := time.Now()
	a.tStep = now
	if a.tr != nil {
		a.hookMs = append(a.hookMs, ms(now.Sub(a.tGrad)))
		a.tr.add("train.hooks", a.tGrad, now, 0, step, 0)
	}
	a.stamps = append(a.stamps, now)
	a.refMs = append(a.refMs, hostRef())
	a.clocks = append(a.clocks, a.machine.MaxClock())
	a.flops = append(a.flops, a.machine.TotalFLOPs())
	a.losses = append(a.losses, loss)
	if step == trainVerifySteps-1 {
		for _, d := range a.machine.Devices[:a.ranks] {
			a.simClock += d.Clock()
			a.simComm += d.CommTime()
		}
	}
	if a.tr != nil && step == trainWarmSteps {
		a.mallocs = mallocs()
	}
	if a.steps == 0 && step >= trainWarmSteps && now.Sub(a.stamps[trainWarmSteps]) >= a.window {
		if a.tr != nil {
			a.mallocs = mallocs() - a.mallocs
		}
		return errWindowDone
	}
	return nil
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// run executes the arm. A windowed arm ends by vetoing the first step
// past the window, which RunElastic reports as an error wrapping
// errWindowDone; anything else is a real failure.
func (a *arm) run(seed uint64) error {
	cfg := trainConfig(seed, a.hybrid)
	cfg.Hooks = a.hooks()
	if a.steps > 0 {
		cfg.TotalSteps = a.steps
	}
	if a.ckptDir != "" {
		cfg.CkptDir, cfg.CkptEvery = a.ckptDir, trainCkptEvery
	}
	var err error
	if a.guarded {
		_, err = guard.Run(guard.Config{Elastic: cfg, StepDeadline: watchdogDeadline})
	} else {
		_, err = train.RunElastic(cfg, nil)
	}
	if a.steps == 0 && errors.Is(err, errWindowDone) {
		return nil
	}
	if err == nil && a.steps == 0 {
		return fmt.Errorf("train: ran all %d steps before the window closed", trainMaxSteps)
	}
	return err
}

// measured returns the window's step times in ms, indexed from step
// trainWarmSteps+1: as the wall clock saw them, and at reference host
// speed. Step s is the gap between OnStep(s-1) and OnStep(s), less the
// reference kernel that ran at its head.
func (a *arm) measured() (raw, atRef []float64) {
	for s := trainWarmSteps + 1; s < len(a.stamps); s++ {
		d := ms(a.stamps[s].Sub(a.stamps[s-1])) - a.refMs[s-1]
		raw = append(raw, d)
		atRef = append(atRef, atRefSpeed(d, a.refMs[s-1], a.refMs[s]))
	}
	return raw, atRef
}

// piece returns the median over the window of one traced piece of the
// step, at reference host speed. from is the offset of the reference
// sample taken before the piece (-1: the previous OnStep, 0: this
// step's OnStep).
func (a *arm) piece(xs []float64, from int) float64 {
	var out []float64
	for s := trainWarmSteps + 1; s < len(xs) && s < len(a.refMs); s++ {
		out = append(out, atRefSpeed(xs[s], a.refMs[s+from], a.refMs[s]))
	}
	return median(out)
}

// simStepMs is the simulated clock per step in milliseconds, taken
// over the fixed steps 1 … trainVerifySteps-1 that every arm runs, so
// it is a pure function of the layout: identical on every run, whatever
// the window held.
func (a *arm) simStepMs() float64 {
	n := trainVerifySteps - 1
	return (a.clocks[n] - a.clocks[1]) / float64(n-1) * 1e3
}

func runTrain(e *env, hybrid bool) (*report, error) {
	rep := newReport(batchTail)
	ckptDir := ""
	if hybrid {
		ckptDir = filepath.Join(e.dir, "ckpt")
	}
	// Set-up: build the machine, engines and optimizers and take the
	// first few steps, several times over.
	for i := 0; i < setupTrials; i++ {
		s := &arm{hybrid: hybrid, guarded: hybrid, steps: trainSetupSteps}
		d, err := timedSetup(func() error { return s.run(e.seed) })
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, d)
		runtime.GC() // so that the trials' garbage does not stack up in peak_rss_mb
	}

	main := &arm{hybrid: hybrid, guarded: hybrid, ckptDir: ckptDir, window: e.window}
	if e.traced {
		main.window = e.window * 3 / 10
	}
	if err := main.run(e.seed); err != nil {
		return nil, err
	}
	rep.rawMs, rep.opMs = main.measured()
	rep.wall, rep.attempted = sumMs(rep.opMs), len(rep.opMs)
	rep.units = float64(trainBatch * len(rep.opMs))

	other, err := verifyTrain(e, rep, main)
	if err != nil {
		return nil, err
	}
	if e.traced {
		if err := traceTrain(e, rep, main, other, ckptDir); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// verifyTrain replays the first steps twice: on the same layout (the
// simulated clock, FLOP and memory counters and the losses must repeat
// exactly) and on the other workload's layout (per-step loss must
// agree within 1e-5: parallelism may not change the arithmetic beyond
// float32 reduction grouping). It returns the other layout's arm.
func verifyTrain(e *env, rep *report, main *arm) (*arm, error) {
	same := &arm{hybrid: main.hybrid, steps: trainVerifySteps}
	other := &arm{hybrid: !main.hybrid, steps: trainVerifySteps}
	for _, a := range []*arm{same, other} {
		if err := a.run(e.seed); err != nil {
			return nil, err
		}
	}
	for i := 0; i < min(trainVerifySteps, len(main.clocks)); i++ {
		if same.clocks[i] != main.clocks[i] || same.flops[i] != main.flops[i] {
			rep.fail("step %d: simulated clock/FLOPs differ between two runs of one layout (%v/%d vs %v/%d)",
				i, main.clocks[i], main.flops[i], same.clocks[i], same.flops[i])
			break
		}
		if same.losses[i] != main.losses[i] {
			rep.fail("step %d: loss %v differs from %v on a rerun of the same layout and seed", i, same.losses[i], main.losses[i])
			break
		}
		if d := math.Abs(other.losses[i] - main.losses[i]); d > 1e-5 || math.IsNaN(d) {
			rep.fail("step %d: loss %v vs %v on the other layout (|Δ| %g > 1e-5)", i, main.losses[i], other.losses[i], d)
			break
		}
	}
	if a, b := same.machine.MaxMemPeak(), main.machine.MaxMemPeak(); a != b {
		rep.fail("device memory peak %d differs from %d on a rerun", a, b)
	}
	return other, nil
}

// traceTrain adds the traced arm (per-rank beats, the step's three
// pieces), the bare arm that prices the supervisor, the simulated
// breakdown and the kernel/collective replays.
func traceTrain(e *env, rep *report, untraced, other *arm, ckptDir string) error {
	hybrid := untraced.hybrid
	if ckptDir != "" {
		if err := os.RemoveAll(ckptDir); err != nil {
			return err
		}
	}
	tr := &arm{hybrid: hybrid, guarded: hybrid, ckptDir: ckptDir, window: e.window * 4 / 10, tr: e.tr}
	if err := tr.run(e.seed); err != nil {
		return err
	}
	_, stepMs := tr.measured()
	_, base := untraced.measured()
	L := rep.layer
	L["trace.overhead_pct"] = (median(stepMs)/median(base) - 1) * 100
	L["host.ref_ms"] = median(tr.refMs)
	L["train.fwdbwd_ms"] = tr.piece(tr.fwdbwdMs, -1)
	L["train.hooks_ms"] = tr.piece(tr.hookMs, -1)
	L["train.apply_ms"] = tr.piece(tr.applyMs, 0)
	L["train.rank_skew_ms"] = tr.piece(tr.skewMs, -1)
	L["train.allocs_per_step"] = float64(tr.mallocs) / float64(len(stepMs))

	if hybrid {
		bare := &arm{hybrid: true, window: e.window * 2 / 10}
		if err := bare.run(e.seed); err != nil {
			return err
		}
		_, bareMs := bare.measured()
		L["guard.step_tax_pct"] = (median(base)/median(bareMs) - 1) * 100

		// A checkpoint is saved after step s when (s+1)%CkptEvery == 0,
		// so it lands in the interval that ends at OnStep(s+1).
		var stalls []float64
		med := median(stepMs)
		for k, d := range stepMs {
			if (trainWarmSteps+1+k)%trainCkptEvery == 0 {
				stalls = append(stalls, d-med)
			}
		}
		if stall := median(stalls); stall > 0 {
			bytes, err := dirBytes(ckptDir)
			if err != nil {
				return err
			}
			L["ckpt.save_stall_ms"] = stall
			L["ckpt.save_mb_per_s"] = float64(bytes) / 1e6 / (stall / 1e3)
		}
	}

	// Simulated, deterministic: device counters of the traced arm over
	// its fixed first steps, and the planner's replay of the same layout.
	n := trainVerifySteps - 1
	L["cluster.sim_step_ms"] = tr.simStepMs()
	L["cluster.sim_flops_per_step"] = float64(tr.flops[n]-tr.flops[1]) / float64(n-1)
	L["cluster.mem_peak_bytes"] = float64(tr.machine.MaxMemPeak())
	L["comm.sim_exposed_share"] = tr.simComm / tr.simClock
	single, hyb := other, tr
	if !hybrid {
		single, hyb = tr, other
	}
	L["core.sim_scaling_eff"] = single.simStepMs() / (float64(trainLayout(true).Ranks()) * hyb.simStepMs())

	l := trainLayout(hybrid)
	micros := trainBatch / (l.FSDP * l.DDP)
	w := plan.Workload{Dim: trainDim, Heads: trainHeads, Layers: trainLayers, Tokens: trainTokens,
		QKNorm: true, GlobalBatch: trainBatch, Opts: trainOpts()}
	shape := plan.ScaledShape(1, trainComputeScale)
	pred := plan.Predict4(w, shape, plan.Candidate4{Layout: l, Knobs: plan.Knobs{MicroBatches: micros}})
	L["core.sim_compute_ms"] = pred.ComputeTime * 1e3
	L["core.sim_gather_wait_ms"] = pred.GatherWait * 1e3
	L["core.sim_tp_wait_ms"] = pred.TPWait * 1e3
	L["core.sim_rs_wait_ms"] = pred.RSWait * 1e3
	L["core.sim_ddp_wait_ms"] = pred.DDPWait * 1e3
	L["pp.sim_bubble_share"] = pred.PPWait / pred.StepTime
	idle, err := scheduleIdleShare(l.PP, micros)
	if err != nil {
		return err
	}
	L["pp.sched_idle_share"] = idle

	k := replayTrainKernels(e.tr, trainTokens)
	if hybrid {
		replayCollectives(e.tr, L)
	} else {
		// The pieces must sum to the total: a sample passes every block
		// forward once, then (activation checkpointing) forward again
		// and backward; the optimizer touches every parameter once.
		perStep := float64(trainBatch*trainLayers)*(k.blockFwdUs+k.blockFwdBwdUs)/1e3 +
			k.adamwNsPerParam*float64(k.blockParams*trainLayers)/1e6
		L["train.unattributed_share"] = 1 - perStep/median(base)
	}
	k.into(L)
	return nil
}

// scheduleIdleShare executes the 1F1B op lists with unit costs
// (forward 1, backward 2) under their data dependencies and returns
// the share of stage-time spent idle: the bubble the schedule itself
// implies, before any link cost.
func scheduleIdleShare(stages, micros int) (float64, error) {
	ops, err := pp.ScheduleFor(pp.Schedule1F1B, stages, 1, micros)
	if err != nil {
		return 0, err
	}
	type key struct {
		kind         pp.OpKind
		stage, micro int
	}
	done := map[key]float64{}
	next := make([]int, stages)
	free := make([]float64, stages)
	var busy float64
	for progressed := true; progressed; {
		progressed = false
		for s := 0; s < stages; s++ {
			for next[s] < len(ops[s]) {
				op := ops[s][next[s]]
				dep, cost, ready := key{op.Kind, s - 1, op.Micro}, 1.0, s == 0
				if op.Kind == pp.Bwd {
					dep, cost, ready = key{pp.Bwd, s + 1, op.Micro}, 2.0, s == stages-1
				}
				at, ok := done[dep]
				if !ready && !ok {
					break
				}
				start := math.Max(free[s], at)
				free[s] = start + cost
				busy += cost
				done[key{op.Kind, s, op.Micro}] = free[s]
				next[s]++
				progressed = true
			}
		}
	}
	var makespan float64
	for s, f := range free {
		if next[s] != len(ops[s]) {
			return 0, fmt.Errorf("schedule deadlocked at stage %d op %d", s, next[s])
		}
		makespan = math.Max(makespan, f)
	}
	return 1 - busy/(makespan*float64(stages)), nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
