package pp

import "fmt"

// OpKind distinguishes the two slot types of a pipeline schedule.
type OpKind uint8

const (
	// Fwd runs one micro-batch forward through the stage.
	Fwd OpKind = iota
	// Bwd runs the matching backward.
	Bwd
)

func (k OpKind) String() string {
	if k == Fwd {
		return "F"
	}
	return "B"
}

// Op is one slot of a stage's schedule: run Kind for micro-batch
// Micro. Recompute marks a backward that does not directly follow its
// own micro-batch's forward: other forwards ran since, so the stage
// charges its checkpointed forward again first (core.Engine's
// ChargeForward). Schedules are pure data — deterministic per-stage op
// lists — so the planner's instruction-level replay and the functional
// engine execute the identical sequence by construction.
type Op struct {
	Kind      OpKind
	Recompute bool
	Micro     int
}

// ScheduleKind selects the micro-batch schedule.
type ScheduleKind uint8

// Schedule1F1B is the one-forward-one-backward schedule: stage s warms
// up with min(M, S−1−s) forwards, then alternates (forward, backward)
// pairs in steady state, then drains the remaining backwards.
// Backwards execute in ascending micro order on every stage, which is
// what keeps gradient accumulation bit-identical to the single-stage
// reference. It is the only schedule.
const Schedule1F1B ScheduleKind = 0

// ScheduleFor builds the per-stage 1F1B op lists for S stages × M
// micro-batches; kind must be Schedule1F1B and chunks 1. Every stage's
// list is a deterministic pure function of (S, M); the conformance
// suite proves each list gradient-equivalent to the single-stage
// reference, and the per-(link, direction) transfer orders the lists
// induce are ascending on both endpoints, which is what makes the
// rendezvous transport deadlock-free.
func ScheduleFor(kind ScheduleKind, stages, chunks, micros int) ([][]Op, error) {
	if stages < 1 || chunks < 1 || micros < 1 {
		return nil, fmt.Errorf("pp: schedule needs positive stages/chunks/micros, got %d/%d/%d", stages, chunks, micros)
	}
	if kind != Schedule1F1B {
		return nil, fmt.Errorf("pp: unknown schedule kind %d", kind)
	}
	if chunks != 1 {
		return nil, fmt.Errorf("pp: 1F1B runs one chunk per stage, got %d", chunks)
	}
	return oneFOneB(stages, micros), nil
}

// oneFOneB emits the classic 1F1B lists. Stage s of S:
//
//	warmup:   F_0 … F_{w−1}            with w = min(M, S−1−s)
//	steady:   (F_i, B_{i−w})           for i = w … M−1
//	cooldown: B_{M−w} … B_{M−1}
func oneFOneB(stages, micros int) [][]Op {
	out := make([][]Op, stages)
	for s := 0; s < stages; s++ {
		w := min(stages-1-s, micros)
		ops := make([]Op, 0, 2*micros)
		for i := 0; i < w; i++ {
			ops = append(ops, Op{Kind: Fwd, Micro: i})
		}
		// A backward recomputes unless its own forward ran just before:
		// in steady state when w > 0, in cooldown unless F0 B0 is the
		// whole list.
		for i := w; i < micros; i++ {
			ops = append(ops, Op{Kind: Fwd, Micro: i}, Op{Kind: Bwd, Micro: i - w, Recompute: w > 0})
		}
		for i := micros - w; i < micros; i++ {
			ops = append(ops, Op{Kind: Bwd, Micro: i, Recompute: micros > 1})
		}
		out[s] = ops
	}
	return out
}
