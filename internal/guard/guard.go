// Package guard is the training-run supervisor: it wraps an elastic
// training run (train.RunElastic) with the three recovery loops a
// long-lived pretraining job needs and the training loop itself should
// not know about:
//
//   - Checkpoint integrity. Saves retain several generations
//     (ElasticConfig.Keep); loads verify per-section CRCs and shard
//     digests before deserializing, quarantine a corrupt generation,
//     and fall back to the next retained one (internal/ckpt).
//   - Numerical health. A per-step sentinel scans the loss and global
//     gradient norm for NaN/Inf and EWMA spikes; a diverging step is
//     vetoed BEFORE the optimizer applies it, the run rolls back to
//     the last good checkpoint, and — if the same step diverges again
//     on replay — the data stream is salted past the offending window
//     so a data-dependent fault cannot recur.
//   - Hangs and stragglers. A watchdog watches per-rank heartbeats and
//     device progress clocks; a rank that stops progressing without
//     dying (the failure health checks cannot see) is declared dead
//     after StepDeadline, which routes the run through the elastic
//     rebuild path.
//
// The supervisor composes with user hooks and never changes the
// training math: phase-separated steps (see train.runStep) mean a
// vetoed step leaves weights exactly at the previous boundary, and
// fault-free supervised runs are bit-identical to unsupervised ones.
package guard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"orbit/internal/cluster"
	"orbit/internal/pp"
	"orbit/internal/train"
)

// Config configures a supervised training run.
type Config struct {
	// Elastic is the underlying training-run configuration. Its Hooks
	// are composed with (called after) the supervisor's own; its
	// StepSalt map is cloned, never mutated.
	Elastic train.ElasticConfig
	// Inj injects faults into the run (nil for a fault-free run).
	Inj *cluster.FaultInjector

	// StepDeadline is how long the run may go without any rank making
	// progress before the watchdog declares the slowest rank dead.
	// 0 disables the watchdog; a negative deadline is an error.
	StepDeadline time.Duration
	// MaxRollbacks bounds divergence rollbacks (0 = default 2: one
	// plain replay for transient faults, one salted replay for
	// data-dependent ones; a negative budget is an error).
	MaxRollbacks int
}

// The supervisor's fixed policy.
const (
	// maxWatchdogKills bounds how many nodes the watchdog evicts before
	// it gives the whole run up.
	maxWatchdogKills = 3
	// spikeFactor flags a step whose gradient norm exceeds spikeFactor ×
	// its EWMA (NaN/Inf are always flagged).
	spikeFactor = 10
	// ewmaAlpha is the EWMA smoothing factor.
	ewmaAlpha = 0.3
	// spikeWarmup is how many steps feed the EWMA before spike
	// detection arms.
	spikeWarmup = 3
	// supervisorSeed drives the supervisor's own randomness (watchdog
	// jitter, salt values).
	supervisorSeed = 1
)

// Event is one supervisor action.
type Event struct {
	Step   int
	Kind   string // "divergence", "rollback", "salt", "watchdog-kill", "giveup"
	Detail string
}

// Result is the outcome of a supervised run.
type Result struct {
	// Losses is the per-step global-batch mean loss of the steps that
	// finally stood, merged across rollback attempts (a rolled-back
	// step's final value is from the attempt that survived).
	Losses []float64
	// Events are the supervisor's own actions; the per-attempt elastic
	// events (faults, rebuilds, quarantines, checkpoints) live in Runs.
	Events []Event
	// Runs holds every elastic attempt's result in order; Elastic is
	// the last (== Runs[len(Runs)-1]).
	Runs    []*train.ElasticResult
	Elastic *train.ElasticResult
	// Rollbacks counts divergence rollbacks; WatchdogKills counts
	// devices the watchdog declared dead.
	Rollbacks     int
	WatchdogKills int
}

// DivergenceError reports a step vetoed by the numerical-health
// sentinel. The optimizer never applied the step.
type DivergenceError struct {
	Step     int
	Loss     float64
	GradNorm float64
	EWMA     float64
	Reason   string // "non-finite loss", "non-finite grad norm", "grad norm spike"
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("guard: step %d diverged (%s): loss=%g gradNorm=%g ewma=%g",
		e.Step, e.Reason, e.Loss, e.GradNorm, e.EWMA)
}

// Run executes a supervised training run to completion, rolling back
// and retrying through the configured fault budget. The returned
// Result is non-nil even on error (partial progress, events).
func Run(cfg Config) (*Result, error) {
	switch {
	case cfg.StepDeadline < 0:
		return &Result{}, fmt.Errorf("guard: negative StepDeadline %v", cfg.StepDeadline)
	case cfg.MaxRollbacks < 0:
		return &Result{}, fmt.Errorf("guard: negative MaxRollbacks %d", cfg.MaxRollbacks)
	}
	if cfg.MaxRollbacks == 0 {
		cfg.MaxRollbacks = 2
	}
	// A salted replay covers the steps up to the next checkpoint.
	saltWindow := max(cfg.Elastic.CkptEvery, 1)

	res := &Result{Losses: make([]float64, cfg.Elastic.TotalSteps)}
	var mu sync.Mutex // guards res.Events (the watchdog appends concurrently)
	event := func(step int, kind, detail string) {
		mu.Lock()
		res.Events = append(res.Events, Event{Step: step, Kind: kind, Detail: detail})
		mu.Unlock()
	}

	sent := &sentinel{}

	var wd *watchdog
	if cfg.StepDeadline > 0 {
		wd = newWatchdog(cfg.StepDeadline, func(step int, detail string) {
			mu.Lock()
			res.WatchdogKills++
			mu.Unlock()
			event(step, "watchdog-kill", detail)
		})
		defer wd.stop()
	}

	ecfg := cfg.Elastic
	ecfg.StepSalt = cloneSalt(cfg.Elastic.StepSalt)
	user := cfg.Elastic.Hooks
	ecfg.Hooks = composeHooks(user, sent, wd)

	lastDiverged := -1
	for {
		er, err := train.RunElastic(ecfg, cfg.Inj)
		if er != nil {
			res.Runs = append(res.Runs, er)
			res.Elastic = er
			mergeLosses(res.Losses, er.Losses)
		}
		if err == nil {
			return res, nil
		}
		var div *DivergenceError
		if !errors.As(err, &div) {
			return res, err
		}
		event(div.Step, "divergence", div.Error())
		if res.Rollbacks >= cfg.MaxRollbacks {
			event(div.Step, "giveup", fmt.Sprintf("rollback budget (%d) exhausted", cfg.MaxRollbacks))
			return res, fmt.Errorf("guard: still diverging at step %d after %d rollbacks: %w",
				div.Step, res.Rollbacks, div)
		}
		res.Rollbacks++
		if div.Step == lastDiverged {
			// The plain replay diverged at the same step: the fault is
			// data-dependent, not transient. Salt the data stream over
			// the offending window so the replay sees different
			// samples; all later steps keep their original seeds.
			for s := div.Step; s < div.Step+saltWindow && s < ecfg.TotalSteps; s++ {
				ecfg.StepSalt[s] ^= saltValue(supervisorSeed, uint64(res.Rollbacks), uint64(s))
			}
			event(div.Step, "salt", fmt.Sprintf("salted data stream for steps [%d,%d)",
				div.Step, min(div.Step+saltWindow, ecfg.TotalSteps)))
		}
		lastDiverged = div.Step
		sent.reset()
		ecfg.Resume = true // roll back to the newest valid checkpoint
		event(div.Step, "rollback", fmt.Sprintf("rollback %d/%d: resuming from last good checkpoint",
			res.Rollbacks, cfg.MaxRollbacks))
	}
}

// composeHooks layers the supervisor's observation points under the
// user's hooks (user hooks run after, and a user OnStep veto is
// honored after the sentinel's).
func composeHooks(user *train.Hooks, sent *sentinel, wd *watchdog) *train.Hooks {
	h := &train.Hooks{}
	h.OnBuild = func(m *cluster.Machine, layout pp.Layout) {
		if wd != nil {
			wd.watch(m, layout.Ranks())
		}
		if user != nil && user.OnBuild != nil {
			user.OnBuild(m, layout)
		}
	}
	h.OnBeat = func(rank, step int) {
		if wd != nil {
			wd.beat(step)
		}
		if user != nil && user.OnBeat != nil {
			user.OnBeat(rank, step)
		}
	}
	if user != nil && user.GradHook != nil {
		h.GradHook = user.GradHook
	}
	h.OnStep = func(step int, loss, gradNorm float64) error {
		if wd != nil {
			wd.beat(step)
		}
		if err := sent.check(step, loss, gradNorm); err != nil {
			return err
		}
		if user != nil && user.OnStep != nil {
			return user.OnStep(step, loss, gradNorm)
		}
		return nil
	}
	return h
}

// mergeLosses overlays the steps an attempt actually executed onto the
// merged trajectory. The toy objective's MSE loss is strictly positive,
// so zero means "step not run in this attempt".
func mergeLosses(dst, src []float64) {
	for i, v := range src {
		if i < len(dst) && v != 0 {
			dst[i] = v
		}
	}
}

func cloneSalt(m map[int]uint64) map[int]uint64 {
	c := make(map[int]uint64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// saltValue is a splitmix64-style hash of (seed, attempt, step):
// deterministic, so a supervised run's recovery trajectory is
// reproducible.
func saltValue(seed, attempt, step uint64) uint64 {
	z := seed ^ attempt*0x9E3779B97F4A7C15 ^ step*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1 // XORing a zero salt would be a no-op
	}
	return z
}
