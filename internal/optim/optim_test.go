package optim

import (
	"math"
	"testing"

	"orbit/internal/nn"
	"orbit/internal/tensor"
)

// quadParam builds a single scalar parameter for optimizing
// f(w) = (w-target)², whose gradient is 2(w-target).
func quadParam(init float32) *nn.Param {
	return nn.NewParam("w", tensor.FromSlice([]float32{init}, 1))
}

func setQuadGrad(p *nn.Param, target float32) {
	p.Grad.Set(2*(p.W.At(0)-target), 0)
}

func TestAdamWConvergesOnQuadratic(t *testing.T) {
	p := quadParam(5)
	opt := NewAdamW([]*nn.Param{p}, 0)
	for i := 0; i < 500; i++ {
		setQuadGrad(p, 2)
		opt.Step(0.05)
	}
	if math.Abs(float64(p.W.At(0))-2) > 0.05 {
		t.Errorf("AdamW converged to %v, want 2", p.W.At(0))
	}
}

func TestAdamWFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the first Adam step has magnitude ≈ lr
	// regardless of gradient scale.
	for _, gscale := range []float32{1e-3, 1, 1e3} {
		p := quadParam(0)
		p.Grad.Set(gscale, 0)
		opt := NewAdamW([]*nn.Param{p}, 0)
		opt.Step(0.1)
		if math.Abs(float64(p.W.At(0))+0.1) > 1e-3 {
			t.Errorf("first step with grad %v moved to %v, want ≈ -0.1", gscale, p.W.At(0))
		}
	}
}

func TestAdamWWeightDecayShrinksWeights(t *testing.T) {
	p := quadParam(1)
	opt := NewAdamW([]*nn.Param{p}, 0.5)
	// Zero gradient: only decay acts.
	opt.Step(0.1)
	if w := p.W.At(0); w >= 1 || w <= 0.9 {
		t.Errorf("weight after decay-only step = %v, want in (0.9, 1)", w)
	}
	// Decoupled decay: with zero grad, Adam term is 0, so
	// w = 1 - lr*wd*1 = 0.95.
	if w := p.W.At(0); math.Abs(float64(w)-0.95) > 1e-6 {
		t.Errorf("decoupled decay = %v, want 0.95", w)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := nn.NewParam("w", tensor.New(4))
	p.Grad.Fill(3) // norm = 6
	pre := ClipGradNorm([]*nn.Param{p}, 1.0)
	if math.Abs(pre-6) > 1e-6 {
		t.Errorf("pre-clip norm = %v, want 6", pre)
	}
	if got := nn.GlobalGradNorm([]*nn.Param{p}); math.Abs(got-1) > 1e-5 {
		t.Errorf("post-clip norm = %v, want 1", got)
	}
}

func TestClipGradNormNoopBelowThreshold(t *testing.T) {
	p := nn.NewParam("w", tensor.New(4))
	p.Grad.Fill(0.1)
	ClipGradNorm([]*nn.Param{p}, 10)
	if p.Grad.At(0) != 0.1 {
		t.Error("clip should not modify small gradients")
	}
}

func TestCosineScheduleShape(t *testing.T) {
	s := CosineSchedule{BaseLR: 1, MinLR: 0.1, WarmupSteps: 10, TotalSteps: 110}
	if lr := s.LR(0); lr <= 0 || lr > 0.2 {
		t.Errorf("LR(0) = %v, want small positive", lr)
	}
	if lr := s.LR(9); math.Abs(lr-1) > 1e-9 {
		t.Errorf("LR(end of warmup) = %v, want 1", lr)
	}
	mid := s.LR(60)
	if mid >= 1 || mid <= 0.1 {
		t.Errorf("LR(mid) = %v, want between MinLR and BaseLR", mid)
	}
	if lr := s.LR(110); lr != 0.1 {
		t.Errorf("LR(total) = %v, want MinLR", lr)
	}
	if lr := s.LR(1000); lr != 0.1 {
		t.Errorf("LR(beyond) = %v, want MinLR", lr)
	}
	// Monotone decay after warmup.
	prev := s.LR(10)
	for i := 11; i <= 110; i++ {
		cur := s.LR(i)
		if cur > prev+1e-12 {
			t.Fatalf("cosine not monotone at %d: %v > %v", i, cur, prev)
		}
		prev = cur
	}
}

func TestAdamWTrainsLinearRegression(t *testing.T) {
	// End-to-end sanity: a linear layer fits y = 2x + 1.
	rng := tensor.NewRNG(42)
	l := nn.NewLinear("fit", 1, 1, true, rng)
	opt := NewAdamW(l.Params(), 0)
	for i := 0; i < 400; i++ {
		x := tensor.Randn(rng, 1, 8, 1)
		target := tensor.New(8, 1)
		for r := 0; r < 8; r++ {
			target.Set(2*x.At(r, 0)+1, r, 0)
		}
		nn.ZeroGrads(l.Params())
		y := l.Forward(x)
		diff := tensor.SubInto(tensor.New(8, 1), y, target)
		diff.ScaleInPlace(2.0 / 8)
		l.Backward(diff)
		opt.Step(0.05)
	}
	if w := l.Weight.W.At(0, 0); math.Abs(float64(w)-2) > 0.1 {
		t.Errorf("fit weight %v, want 2", w)
	}
	if b := l.Bias.W.At(0); math.Abs(float64(b)-1) > 0.1 {
		t.Errorf("fit bias %v, want 1", b)
	}
}
