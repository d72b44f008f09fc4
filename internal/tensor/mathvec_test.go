package tensor

import (
	"math"
	"testing"
)

// TestVecTranscendentalsMatchScalar pins the AVX2 exp/tanh kernels to
// the scalar reference bit-for-bit: the vector code mirrors every
// multiply and add without FMA contraction, so each lane must produce
// the exact float32 the scalar function returns — including around the
// branch boundaries (±0.625, ±9) and the exp range clamps.
func TestVecTranscendentalsMatchScalar(t *testing.T) {
	if !useFMA {
		t.Skip("vector kernels unavailable on this CPU")
	}
	var inputs []float32
	for _, v := range []float32{
		0, 1e-12, -1e-12, 0.1, -0.1, 0.624, 0.625, 0.626, -0.624, -0.625, -0.626,
		1, -1, 3.5, -3.5, 8.99, 9.0, 9.01, -8.99, -9.0, -9.01,
		20, -20, 44, -44, 87, -87, 88.3, -87.3, 88.5, -87.4, 200, -200,
		float32(math.Inf(1)), float32(math.Inf(-1)),
	} {
		inputs = append(inputs, v)
	}
	rng := NewRNG(77)
	for i := 0; i < 1000; i++ {
		inputs = append(inputs, float32((rng.Float64()-0.5)*30))
	}
	// Odd length exercises the scalar tail alongside the vector body.
	inputs = append(inputs, 0.33)

	e := make([]float32, len(inputs))
	expSlice(e, inputs)
	for i, x := range inputs {
		want := exp32(x)
		if math.Float32bits(e[i]) != math.Float32bits(want) {
			t.Fatalf("expVec(%v) = %v (bits %08x), scalar %v (bits %08x)",
				x, e[i], math.Float32bits(e[i]), want, math.Float32bits(want))
		}
	}
	// tanh32's vector form runs inside the GELU kernel, which stores it
	// as the cache: th must be tanh32 of the argument the scalar loop
	// forms. Arguments walk ulp by ulp across the branch boundaries.
	for _, edge := range []float32{0.625, 9} {
		for _, sign := range []float32{1, -1} {
			x := sign * geluArgInverse(edge)
			for k := 0; k < 64; k++ {
				inputs = append(inputs, x)
				x = math.Nextafter32(x, sign*float32(math.Inf(1)))
			}
		}
	}
	got, th := make([]float32, len(inputs)), make([]float32, len(inputs))
	if n := geluSlice(got, th, inputs); n != len(inputs)&^7 {
		t.Fatalf("geluSlice took %d of %d elements", n, len(inputs))
	}
	var branch [3]int // |u| < 0.625, the exp identity, |u| > 9
	for i, x := range inputs[:len(inputs)&^7] {
		u := geluC0 * (x + geluC1*x*x*x)
		if want := tanh32(u); math.Float32bits(th[i]) != math.Float32bits(want) {
			t.Fatalf("geluVec's tanh(%v) = %v (bits %08x), scalar %v (bits %08x)",
				u, th[i], math.Float32bits(th[i]), want, math.Float32bits(want))
		}
		switch a := float32(math.Abs(float64(u))); {
		case a < 0.625:
			branch[0]++
		case a <= 9:
			branch[1]++
		default:
			branch[2]++
		}
	}
	if branch[0] < 64 || branch[1] < 128 || branch[2] < 64 {
		t.Fatalf("inputs miss a tanh32 branch: %v", branch)
	}
}

// geluArgInverse returns the largest x ≥ 0 whose GELU tanh argument is
// still below u, less 32 ulps: a walk up from it crosses u.
func geluArgInverse(u float32) float32 {
	lo, hi := float32(0), float32(16)
	for math.Nextafter32(lo, hi) < hi {
		mid := lo + (hi-lo)/2
		if geluC0*(mid+geluC1*mid*mid*mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	for k := 0; k < 32; k++ {
		lo = math.Nextafter32(lo, 0)
	}
	return lo
}
