package guard

import "math"

// sentinel is the numerical-health monitor: it sees every step's loss
// and global gradient norm BEFORE the optimizer applies the step, so a
// flagged step can be discarded without contaminating the weights.
//
// Two triggers:
//
//   - Non-finite loss or gradient norm — always fatal, from step 0.
//   - Gradient-norm spike: gradNorm > spikeFactor × EWMA(gradNorm),
//     armed only after spikeWarmup steps have fed the average. The
//     EWMA tracks the healthy trajectory's scale, so a genuine
//     loss-landscape cliff early in warmup doesn't false-positive.
//
// Not concurrency-safe: called from the single host-side OnStep hook.
type sentinel struct {
	n    int     // healthy steps observed since reset
	ewma float64 // EWMA of the gradient norm
}

// check vets one step. A nil return means the step may be applied (and
// its gradient norm has been folded into the EWMA).
func (s *sentinel) check(step int, loss, gradNorm float64) error {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return &DivergenceError{Step: step, Loss: loss, GradNorm: gradNorm, EWMA: s.ewma,
			Reason: "non-finite loss"}
	}
	if math.IsNaN(gradNorm) || math.IsInf(gradNorm, 0) {
		return &DivergenceError{Step: step, Loss: loss, GradNorm: gradNorm, EWMA: s.ewma,
			Reason: "non-finite grad norm"}
	}
	if s.n >= spikeWarmup && s.ewma > 0 && gradNorm > spikeFactor*s.ewma {
		return &DivergenceError{Step: step, Loss: loss, GradNorm: gradNorm, EWMA: s.ewma,
			Reason: "grad norm spike"}
	}
	if s.n == 0 {
		s.ewma = gradNorm
	} else {
		s.ewma = ewmaAlpha*gradNorm + (1-ewmaAlpha)*s.ewma
	}
	s.n++
	return nil
}

// reset clears the history for a post-rollback replay: the replayed
// window re-derives its own EWMA rather than comparing against a
// trajectory that includes the divergence.
func (s *sentinel) reset() {
	s.n = 0
	s.ewma = 0
}
