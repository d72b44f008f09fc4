package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"orbit/internal/tensor"
)

func TestLatitudeWeightsNormalized(t *testing.T) {
	for _, rows := range []int{4, 32, 128} {
		w := LatitudeWeights(rows)
		var sum float64
		for _, v := range w {
			sum += v
		}
		if math.Abs(sum/float64(rows)-1) > 1e-12 {
			t.Errorf("rows=%d: mean weight %v, want 1", rows, sum/float64(rows))
		}
	}
}

func TestLatitudeWeightsEquatorHeaviest(t *testing.T) {
	w := LatitudeWeights(64)
	mid := w[31]
	if w[0] >= mid || w[63] >= mid {
		t.Errorf("polar weights %v, %v should be below equator %v", w[0], w[63], mid)
	}
	// Symmetry about the equator.
	for i := 0; i < 32; i++ {
		if math.Abs(w[i]-w[63-i]) > 1e-12 {
			t.Fatalf("weights not symmetric at %d", i)
		}
	}
}

func TestWeightedMSEZeroForPerfect(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, 2, 4, 6)
	loss, grad := WeightedMSE(x, x.Clone())
	if loss != 0 {
		t.Errorf("perfect prediction loss = %v", loss)
	}
	if grad.MaxAbs() != 0 {
		t.Error("perfect prediction gradient nonzero")
	}
}

func TestWeightedMSEMatchesPlainMSEOnUniformError(t *testing.T) {
	// A constant error of e everywhere gives wMSE = e² because the
	// weights average to 1.
	pred := tensor.Full(3, 2, 8, 4)
	target := tensor.Full(1, 2, 8, 4)
	loss, _ := WeightedMSE(pred, target)
	if math.Abs(loss-4) > 1e-9 {
		t.Errorf("uniform-error wMSE = %v, want 4", loss)
	}
}

func TestWeightedMSEGradientNumerical(t *testing.T) {
	rng := tensor.NewRNG(2)
	pred := tensor.Randn(rng, 1, 1, 4, 3)
	target := tensor.Randn(rng, 1, 1, 4, 3)
	_, grad := WeightedMSE(pred, target)
	const eps = 1e-3
	for i := 0; i < pred.Len(); i++ {
		orig := pred.Data()[i]
		pred.Data()[i] = orig + eps
		lp, _ := WeightedMSE(pred, target)
		pred.Data()[i] = orig - eps
		lm, _ := WeightedMSE(pred, target)
		pred.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data()[i])) > 1e-4 {
			t.Fatalf("wMSE grad[%d]: numerical %v vs analytic %v", i, num, grad.Data()[i])
		}
	}
}

func TestWeightedMSEPolarErrorCheaper(t *testing.T) {
	// The same error magnitude at the pole must cost less than at the
	// equator — the entire point of latitude weighting.
	h, w := 8, 4
	target := tensor.New(1, h, w)
	polar := target.Clone()
	equator := target.Clone()
	for wi := 0; wi < w; wi++ {
		polar.Set(1, 0, 0, wi)     // error on the most poleward row
		equator.Set(1, 0, h/2, wi) // error on an equatorial row
	}
	lp, _ := WeightedMSE(polar, target)
	le, _ := WeightedMSE(equator, target)
	if lp >= le {
		t.Errorf("polar loss %v should be < equatorial loss %v", lp, le)
	}
}

func TestWeightedRMSEKnown(t *testing.T) {
	pred := tensor.Full(2, 1, 4, 4)
	target := tensor.New(1, 4, 4)
	rmse := WeightedRMSE(pred, target)
	if len(rmse) != 1 || math.Abs(rmse[0]-2) > 1e-9 {
		t.Errorf("uniform-error wRMSE = %v, want [2]", rmse)
	}
}

func TestWeightedACCPerfectAndAnti(t *testing.T) {
	rng := tensor.NewRNG(3)
	clim := tensor.Randn(rng, 1, 1, 6, 8)
	anom := tensor.Randn(rng, 1, 1, 6, 8)
	target := tensor.AddInto(tensor.New(1, 6, 8), clim, anom)

	acc := WeightedACC(target.Clone(), target, clim)
	if math.Abs(acc[0]-1) > 1e-9 {
		t.Errorf("perfect forecast wACC = %v, want 1", acc[0])
	}

	anti := tensor.SubInto(tensor.New(1, 6, 8), clim, anom)
	acc = WeightedACC(anti, target, clim)
	if math.Abs(acc[0]+1) > 1e-9 {
		t.Errorf("anti-correlated forecast wACC = %v, want -1", acc[0])
	}
}

func TestWeightedACCClimatologyIsZeroish(t *testing.T) {
	// Predicting the climatology exactly gives a degenerate (zero
	// variance) anomaly; the implementation reports 0.
	rng := tensor.NewRNG(4)
	clim := tensor.Randn(rng, 1, 1, 6, 8)
	target := tensor.AddInto(tensor.New(1, 6, 8), clim, tensor.Randn(rng, 1, 1, 6, 8))
	acc := WeightedACC(clim.Clone(), target, clim)
	if acc[0] != 0 {
		t.Errorf("climatology forecast wACC = %v, want 0", acc[0])
	}
}

func TestWeightedACCScaleInvariant(t *testing.T) {
	// Correlation is invariant to positive scaling of the anomaly.
	prop := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		clim := tensor.Randn(rng, 1, 1, 4, 6)
		anomP := tensor.Randn(rng, 1, 1, 4, 6)
		anomT := tensor.Randn(rng, 1, 1, 4, 6)
		pred := tensor.AddInto(tensor.New(1, 4, 6), clim, anomP)
		target := tensor.AddInto(tensor.New(1, 4, 6), clim, anomT)
		a1 := WeightedACC(pred, target, clim)[0]
		anomP.ScaleInPlace(7)
		scaled := tensor.AddInto(tensor.New(1, 4, 6), clim, anomP)
		a2 := WeightedACC(scaled, target, clim)[0]
		return math.Abs(a1-a2) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWeightedACCBounded(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		pred := tensor.Randn(rng, 1, 2, 4, 6)
		target := tensor.Randn(rng, 1, 2, 4, 6)
		clim := tensor.Randn(rng, 1, 2, 4, 6)
		for _, a := range WeightedACC(pred, target, clim) {
			if a < -1-1e-9 || a > 1+1e-9 || math.IsNaN(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeanACC(t *testing.T) {
	if got := MeanACC([]float64{0.5, 1.0, 0.0}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MeanACC = %v", got)
	}
}
