package tensor

import (
	"math"
	"testing"
)

// TestVecTranscendentalsMatchScalar pins the AVX2 exp kernel to the
// scalar reference bit-for-bit: the vector code mirrors every multiply
// and add without FMA contraction, so each lane must produce the exact
// float32 the scalar function returns — including around the exp range
// clamps. The GELU kernel runs the same macros;
// TestGELUVecMatchesScalar walks it across the clamps.
func TestVecTranscendentalsMatchScalar(t *testing.T) {
	if !useFMA {
		t.Skip("vector kernels unavailable on this CPU")
	}
	var inputs []float32
	for _, v := range []float32{
		0, 1e-12, -1e-12, 0.1, -0.1, 1, -1, 3.5, -3.5,
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

	got := make([]float32, len(inputs))
	expSlice(got, inputs)
	for i, x := range inputs {
		want := exp32(x)
		if math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("expVec(%v) = %v (bits %08x), scalar %v (bits %08x)",
				x, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
		}
	}
}
