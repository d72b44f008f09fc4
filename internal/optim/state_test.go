package optim

import (
	"testing"

	"orbit/internal/nn"
)

// TestAdamWStateRoundTrip checks that copying Moments + StepCount into
// a fresh optimizer reproduces the exact update sequence — the
// property checkpoint resume relies on.
func TestAdamWStateRoundTrip(t *testing.T) {
	step := func(a *AdamW, p *nn.Param, g float32) {
		p.Grad.Data()[0] = g
		a.Step(1e-2)
	}

	// Reference: 6 uninterrupted steps.
	pRef := quadParam(1)
	ref := NewAdamW([]*nn.Param{pRef}, 0.01)
	grads := []float32{0.5, -0.25, 0.75, -1, 0.1, 0.3}
	for _, g := range grads {
		step(ref, pRef, g)
	}

	// Checkpointed: 3 steps, state copied to a fresh optimizer, 3 more.
	pA := quadParam(1)
	a := NewAdamW([]*nn.Param{pA}, 0.01)
	for _, g := range grads[:3] {
		step(a, pA, g)
	}
	pB := quadParam(pA.W.Data()[0])
	b := NewAdamW([]*nn.Param{pB}, 0.01)
	am, av := a.Moments()
	bm, bv := b.Moments()
	copy(bm[0].Data(), am[0].Data())
	copy(bv[0].Data(), av[0].Data())
	b.SetStepCount(a.StepCount())
	if b.StepCount() != 3 {
		t.Fatalf("StepCount = %d, want 3", b.StepCount())
	}
	for _, g := range grads[3:] {
		step(b, pB, g)
	}

	if got, want := pB.W.Data()[0], pRef.W.Data()[0]; got != want {
		t.Errorf("restored run diverged: %v != %v", got, want)
	}
}
