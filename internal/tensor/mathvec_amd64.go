//go:build amd64

package tensor

// Vectorized exp32 for softmax's rows: an 8-lane AVX2 implementation
// that executes the scalar polynomial operation-for-operation (separate
// multiply and add, no FMA contraction), so every lane produces the
// exact bits of the scalar reference — asserted by
// TestVecTranscendentalsMatchScalar. tanh32's vector form is a macro
// beside it (mathvec_amd64.h) that the GELU kernel runs in registers.

// expVec writes exp32(src[i]) into dst[i] for i in [0, n&^7).
// dst may alias src.
//
//go:noescape
func expVec(dst, src *float32, n int)

// expSlice computes dst[i] = exp32(src[i]) over whole slices, using
// the vector kernel for the aligned body when available.
func expSlice(dst, src []float32) {
	n := len(src)
	i := 0
	if useFMA && n >= 8 {
		expVec(&dst[0], &src[0], n)
		i = n &^ 7
	}
	for ; i < n; i++ {
		dst[i] = exp32(src[i])
	}
}
