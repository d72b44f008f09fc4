package bf16

import (
	"math"
	"testing"
	"testing/quick"

	"orbit/internal/tensor"
)

func TestRoundTripExactValues(t *testing.T) {
	// Values with ≤7 mantissa bits are exactly representable.
	for _, v := range []float32{0, 1, -1, 0.5, 2, -3.5, 1024, 1.0 / 128} {
		if got := Round(v); got != v {
			t.Errorf("Round(%v) = %v, want exact", v, got)
		}
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-8 is exactly halfway between 1.0 and 1+2^-7; ties to even
	// rounds down to 1.0.
	half := float32(1 + 1.0/256)
	if got := Round(half); got != 1.0 {
		t.Errorf("Round(1+2^-8) = %v, want 1 (ties to even)", got)
	}
	// 1 + 3*2^-8 is halfway between 1+2^-7 and 1+2^-6; ties to even
	// rounds up to 1+2^-6.
	half2 := float32(1 + 3.0/256)
	if got := Round(half2); got != float32(1+1.0/64) {
		t.Errorf("Round(1+3*2^-8) = %v, want 1+2^-6", got)
	}
	// Just above the tie rounds up.
	if got := Round(1 + 1.1/256); got != float32(1+1.0/128) {
		t.Errorf("Round(1+1.1*2^-8) = %v, want 1+2^-7", got)
	}
}

func TestNaNAndInfHandling(t *testing.T) {
	nan := FromFloat32(float32(math.NaN()))
	if !nan.IsNaN() {
		t.Error("NaN not preserved")
	}
	inf := FromFloat32(float32(math.Inf(1)))
	if !inf.IsInf() {
		t.Error("+Inf not preserved")
	}
	ninf := FromFloat32(float32(math.Inf(-1)))
	if !ninf.IsInf() || ninf.Float32() >= 0 {
		t.Error("-Inf not preserved")
	}
}

func TestOverflowToInf(t *testing.T) {
	// A float32 above the bf16 rounding boundary (1+255/256)*2^127
	// ≈ 3.3963e38 rounds to +Inf.
	big := float32(3.3969e38)
	b := FromFloat32(big)
	if !b.IsInf() {
		t.Errorf("FromFloat32(%v) = %x, want Inf", big, uint16(b))
	}
}

func TestSignPreserved(t *testing.T) {
	if Round(-2.5) != -2.5 {
		t.Errorf("Round(-2.5) = %v", Round(-2.5))
	}
	if got := Round(-1e-30); got > 0 {
		t.Errorf("sign flipped on small negative: %v", got)
	}
}

// TestPropertyRoundErrorBound: relative rounding error is at most
// 2^-8 for normal values (7 mantissa bits → half-ULP 2^-8).
func TestPropertyRoundErrorBound(t *testing.T) {
	prop := func(v float32) bool {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) || math.Abs(f) < SmallestNormal || math.Abs(f) > MaxValue/2 {
			return true
		}
		r := float64(Round(v))
		return math.Abs(r-f) <= math.Abs(f)/256+1e-45
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRoundIdempotent: rounding twice equals rounding once.
func TestPropertyRoundIdempotent(t *testing.T) {
	prop := func(v float32) bool {
		if math.IsNaN(float64(v)) {
			return true
		}
		once := Round(v)
		return Round(once) == once
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMonotone: rounding preserves (non-strict) order.
func TestPropertyMonotone(t *testing.T) {
	prop := func(a, b float32) bool {
		fa, fb := float64(a), float64(b)
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return Round(a) <= Round(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRoundTensor(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 1.0000001, -3}, 3)
	RoundTensorInPlace(x)
	if x.At(1) != 1 {
		t.Error("RoundTensorInPlace did not round")
	}
}

func TestGradScalerSkipsOnOverflow(t *testing.T) {
	s := NewGradScaler()
	initScale := s.Scale
	g := tensor.FromSlice([]float32{float32(math.Inf(1))}, 1)
	finite := s.Unscale([]*tensor.Tensor{g})
	if finite {
		t.Fatal("Unscale should report non-finite")
	}
	if s.Update(finite) {
		t.Fatal("Update should veto the step on overflow")
	}
	if s.Scale >= initScale {
		t.Errorf("scale should back off: %v -> %v", initScale, s.Scale)
	}
	if s.SkippedSteps() != 1 {
		t.Errorf("SkippedSteps = %d", s.SkippedSteps())
	}
}

func TestGradScalerGrowsAfterInterval(t *testing.T) {
	s := NewGradScaler()
	s.GrowthInterval = 3
	initScale := s.Scale
	for i := 0; i < 3; i++ {
		if !s.Update(true) {
			t.Fatal("finite step should proceed")
		}
	}
	if s.Scale != initScale*2 {
		t.Errorf("scale after growth interval = %v, want %v", s.Scale, initScale*2)
	}
}

func TestGradScalerUnscaleDivides(t *testing.T) {
	s := NewGradScaler()
	s.Scale = 4
	g := tensor.FromSlice([]float32{8, -4}, 2)
	if !s.Unscale([]*tensor.Tensor{g}) {
		t.Fatal("finite gradients reported non-finite")
	}
	if g.At(0) != 2 || g.At(1) != -1 {
		t.Errorf("Unscale result %v", g.Data())
	}
}

func TestGradScalerFloorAtOne(t *testing.T) {
	s := NewGradScaler()
	s.Scale = 1
	s.Update(false)
	if s.Scale < 1 {
		t.Errorf("scale fell below 1: %v", s.Scale)
	}
}

func TestGradScalerSmallGradientFlushedWithoutScaling(t *testing.T) {
	// The motivating case for dynamic scaling: a gradient of 1e-40
	// flushes to zero in bf16, but survives when pre-scaled by 2^16.
	tiny := float32(1e-40)
	if Round(tiny) != 0 {
		t.Skip("platform flushed differently")
	}
	scaled := Round(tiny * 65536)
	if scaled == 0 {
		t.Error("scaled gradient should survive bf16")
	}
}
