package nn

import (
	"math"
	"testing"

	"orbit/internal/tensor"
)

// The shared forward kernels are called two ways: the nn modules pass
// their backward caches, infer.Plan runs each with the caches nil. Both
// must see the same bits, so the contract — out is a function of the
// operands alone, not of the row split or of which caches were asked
// for — is a property checked over random shapes.

// sameBits reports the first index at which a and b differ in bits.
func sameBits(t *testing.T, what string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)", what, i,
				a[i], math.Float32bits(a[i]), b[i], math.Float32bits(b[i]))
		}
	}
}

// randomSplit returns 0 = s[0] <= s[1] <= ... <= s[len-1] = n: up to
// three cut points, empty ranges included.
func randomSplit(rng *tensor.RNG, n int) []int {
	a, b := int(rng.Uint64()%uint64(n+1)), int(rng.Uint64()%uint64(n+1))
	if a > b {
		a, b = b, a
	}
	return []int{0, a, b, n}
}

func sentinel(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(math.NaN())
	}
	return s
}

func TestLayerNormRowsSplitAndCacheInvariance(t *testing.T) {
	rng := tensor.NewRNG(71)
	for trial := 0; trial < 200; trial++ {
		rows, dim := 1+int(rng.Uint64()%40), 1+int(rng.Uint64()%70)
		x := tensor.Randn(rng, 3, rows, dim).Data()
		gamma := tensor.Randn(rng, 1, dim).Data()
		beta := tensor.Randn(rng, 1, dim).Data()
		const eps = 1e-5

		// Reference: one call over every row, caches kept.
		out, xhat, rstd := sentinel(rows*dim), sentinel(rows*dim), make([]float32, rows)
		LayerNormRows(out, xhat, rstd, x, gamma, beta, eps, 0, rows)

		// No caches.
		bare := sentinel(rows * dim)
		LayerNormRows(bare, nil, nil, x, gamma, beta, eps, 0, rows)
		sameBits(t, "out without caches", bare, out)

		// Any split, with and without caches; rows outside [r0, r1)
		// are not written.
		cuts := randomSplit(rng, rows)
		splitOut, splitHat, splitRstd := sentinel(rows*dim), sentinel(rows*dim), make([]float32, rows)
		splitBare := sentinel(rows * dim)
		for i := 0; i+1 < len(cuts); i++ {
			before := append([]float32(nil), splitOut...)
			LayerNormRows(splitOut, splitHat, splitRstd, x, gamma, beta, eps, cuts[i], cuts[i+1])
			LayerNormRows(splitBare, nil, nil, x, gamma, beta, eps, cuts[i], cuts[i+1])
			sameBits(t, "rows below the range", splitOut[:cuts[i]*dim], before[:cuts[i]*dim])
			sameBits(t, "rows above the range", splitOut[cuts[i+1]*dim:], before[cuts[i+1]*dim:])
		}
		sameBits(t, "split out", splitOut, out)
		sameBits(t, "split out without caches", splitBare, out)
		sameBits(t, "split xhat", splitHat, xhat)
		for r := range rstd {
			if splitRstd[r] != rstd[r] {
				t.Fatalf("split rstd[%d] = %v, want %v", r, splitRstd[r], rstd[r])
			}
		}

		// The module is a wrapper over the same kernel.
		ln := NewLayerNorm("t", dim)
		copy(ln.Gamma.W.Data(), gamma)
		copy(ln.Beta.W.Data(), beta)
		sameBits(t, "LayerNorm.Forward", ln.Forward(tensor.FromSlice(x, rows, dim)).Data(), out)
	}
}

func TestAggregateTokensSplitAndCacheInvariance(t *testing.T) {
	rng := tensor.NewRNG(72)
	for trial := 0; trial < 200; trial++ {
		c, tokens, d := 1+int(rng.Uint64()%9), 1+int(rng.Uint64()%20), 1+int(rng.Uint64()%33)
		e := tensor.Randn(rng, 2, c*tokens, d).Data()
		kq := tensor.Randn(rng, 1, d).Data()
		row := make([]float32, 8*c)

		out, alpha := sentinel(tokens*d), sentinel(tokens*c)
		AggregateTokens(out, alpha, row, e, kq, tokens, 0, tokens)
		for ti := 0; ti < tokens; ti++ {
			var s float64
			for _, a := range alpha[ti*c : (ti+1)*c] {
				s += float64(a)
			}
			if math.Abs(s-1) > 1e-5 {
				t.Fatalf("token %d weights sum to %v", ti, s)
			}
		}

		bare := sentinel(tokens * d)
		AggregateTokens(bare, nil, row, e, kq, tokens, 0, tokens)
		sameBits(t, "out without alpha", bare, out)

		cuts := randomSplit(rng, tokens)
		splitOut, splitAlpha, splitBare := sentinel(tokens*d), sentinel(tokens*c), sentinel(tokens*d)
		for i := 0; i+1 < len(cuts); i++ {
			before := append([]float32(nil), splitOut...)
			AggregateTokens(splitOut, splitAlpha, row, e, kq, tokens, cuts[i], cuts[i+1])
			AggregateTokens(splitBare, nil, row, e, kq, tokens, cuts[i], cuts[i+1])
			sameBits(t, "tokens below the range", splitOut[:cuts[i]*d], before[:cuts[i]*d])
			sameBits(t, "tokens above the range", splitOut[cuts[i+1]*d:], before[cuts[i+1]*d:])
		}
		sameBits(t, "split out", splitOut, out)
		sameBits(t, "split out without alpha", splitBare, out)
		sameBits(t, "split alpha", splitAlpha, alpha)
	}
}
