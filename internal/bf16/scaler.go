package bf16

import "orbit/internal/tensor"

// GradScaler implements dynamic gradient scaling for bf16
// mixed-precision training, mirroring torch.cuda.amp.GradScaler which
// the ORBIT paper uses (Sec. III-B "Mixed-Precision"). Losses are
// multiplied by a scale factor before the backward pass so small
// gradients survive bf16's 7-bit mantissa; if any scaled gradient
// overflows to Inf/NaN the step is skipped and the scale is halved,
// otherwise after GrowthInterval consecutive good steps the scale is
// doubled.
type GradScaler struct {
	// Scale is the current loss multiplier.
	Scale float64
	// GrowthFactor multiplies Scale after GrowthInterval good steps.
	GrowthFactor float64
	// BackoffFactor multiplies Scale after an overflow.
	BackoffFactor float64
	// GrowthInterval is the number of consecutive finite steps
	// required before growing the scale.
	GrowthInterval int

	goodSteps    int
	skippedSteps int
	totalSteps   int
}

// NewGradScaler returns a scaler with the PyTorch defaults
// (init 2^16, growth 2.0 every 2000 steps, backoff 0.5).
func NewGradScaler() *GradScaler {
	return &GradScaler{
		Scale:          65536,
		GrowthFactor:   2.0,
		BackoffFactor:  0.5,
		GrowthInterval: 2000,
	}
}

// Unscale divides gradients by the current scale in place and reports
// whether all of them are finite. Call before the optimizer step.
func (s *GradScaler) Unscale(grads []*tensor.Tensor) (finite bool) {
	inv := float32(1 / s.Scale)
	finite = true
	for _, g := range grads {
		if g == nil {
			continue
		}
		if g.HasNaNOrInf() {
			finite = false
		}
		g.ScaleInPlace(inv)
	}
	return finite
}

// Update advances the scaler state after a step. If finite is false
// the step must be skipped by the caller; the scale is backed off.
// Returns true if the optimizer step should proceed.
func (s *GradScaler) Update(finite bool) bool {
	s.totalSteps++
	if !finite {
		s.skippedSteps++
		s.goodSteps = 0
		s.Scale *= s.BackoffFactor
		if s.Scale < 1 {
			s.Scale = 1
		}
		return false
	}
	s.goodSteps++
	if s.goodSteps >= s.GrowthInterval {
		s.Scale *= s.GrowthFactor
		s.goodSteps = 0
	}
	return true
}

// ScalerState is the serializable snapshot of a GradScaler, stored in
// training-state checkpoints so a resumed mixed-precision run keeps
// the scale trajectory (and therefore the loss trajectory) intact.
type ScalerState struct {
	Scale        float64 `json:"scale"`
	GoodSteps    int     `json:"good_steps"`
	SkippedSteps int     `json:"skipped_steps"`
	TotalSteps   int     `json:"total_steps"`
}

// State snapshots the scaler's dynamic state.
func (s *GradScaler) State() ScalerState {
	return ScalerState{
		Scale:        s.Scale,
		GoodSteps:    s.goodSteps,
		SkippedSteps: s.skippedSteps,
		TotalSteps:   s.totalSteps,
	}
}

// Restore loads a snapshot taken with State.
func (s *GradScaler) Restore(st ScalerState) {
	s.Scale = st.Scale
	s.goodSteps = st.GoodSteps
	s.skippedSteps = st.SkippedSteps
	s.totalSteps = st.TotalSteps
}

// SkippedSteps returns how many optimizer steps were skipped because
// of non-finite gradients.
func (s *GradScaler) SkippedSteps() int { return s.skippedSteps }

// TotalSteps returns how many Update calls have occurred.
func (s *GradScaler) TotalSteps() int { return s.totalSteps }
