package tensor

import (
	"math"
	"testing"
)

// naiveMatMul is the float64-accumulating reference all matmul
// kernels are checked against.
func naiveMatMul(t, u *Tensor) *Tensor {
	m, k := t.Dim(0), t.Dim(1)
	n := u.Dim(1)
	out := New(m, n)
	for r := 0; r < m; r++ {
		for c := 0; c < n; c++ {
			var s float64
			for i := 0; i < k; i++ {
				s += float64(t.Data()[r*k+i]) * float64(u.Data()[i*n+c])
			}
			out.Data()[r*n+c] = float32(s)
		}
	}
	return out
}

func naiveTranspose(t *Tensor) *Tensor {
	r, c := t.Dim(0), t.Dim(1)
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Data()[j*r+i] = t.Data()[i*c+j]
		}
	}
	return out
}

func requireClose(t *testing.T, got, want *Tensor, what string) {
	t.Helper()
	if !AllClose(got, want, 1e-5, 1e-5) {
		t.Fatalf("%s: max diff %g", what, MaxDiff(got, want))
	}
}

// TestMatMulIntoParity exercises every matmul kernel — both the
// vector and the scalar path — against the naive reference over
// shapes chosen to hit the 2×4 blocks and all remainder cases (odd
// rows, odd columns, k below and above one vector, non-multiple-of-8
// k for the assembly tail).
func TestMatMulIntoParity(t *testing.T) {
	rng := NewRNG(101)
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {3, 5, 7}, {4, 8, 4}, {5, 16, 9},
		{7, 13, 11}, {8, 17, 12}, {16, 32, 16}, {9, 40, 21}, {33, 65, 29},
	}
	defer func(v bool) { useFMA = v }(useFMA)
	for _, vec := range []bool{false, useFMA} {
		useFMA = vec
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a := Randn(rng, 1, m, k)
			b := Randn(rng, 1, k, n)
			want := naiveMatMul(a, b)

			requireClose(t, MatMulInto(New(m, n), a, b), want, "MatMulInto")

			bias := Randn(rng, 1, n)
			wantBias := AddRowVectorInto(New(m, n), want, bias)
			requireClose(t, MatMulBiasInto(New(m, n), a, b, bias), wantBias, "MatMulBiasInto")

			bT := naiveTranspose(b) // [n, k]
			requireClose(t, MatMulTransBInto(New(m, n), a, bT), want, "MatMulTransBInto")

			aT := naiveTranspose(a) // [k, m]
			requireClose(t, MatMulTransAInto(New(m, n), aT, b), want, "MatMulTransAInto")

			acc := Randn(rng, 1, m, n)
			wantAcc := AddInto(New(m, n), acc, want)
			requireClose(t, MatMulTransAAccInto(acc.Clone(), aT, b), wantAcc, "MatMulTransAAccInto")
		}
	}
}

// TestBatchedMatMulIntoParity checks the head-major batched kernels
// against per-batch naive products.
func TestBatchedMatMulIntoParity(t *testing.T) {
	rng := NewRNG(102)
	defer func(v bool) { useFMA = v }(useFMA)
	for _, vec := range []bool{false, useFMA} {
		useFMA = vec
		for _, s := range [][4]int{{1, 2, 3, 4}, {3, 5, 7, 6}, {4, 8, 16, 8}, {2, 9, 33, 5}} {
			bn, m, k, n := s[0], s[1], s[2], s[3]
			a := Randn(rng, 1, bn, m, k)
			b := Randn(rng, 1, bn, k, n)
			got := BatchedMatMulInto(New(bn, m, n), a, b)
			gotTB := New(bn, m, n)
			var gotTA *Tensor
			for i := 0; i < bn; i++ {
				ai := FromSlice(a.Data()[i*m*k:(i+1)*m*k], m, k)
				bi := FromSlice(b.Data()[i*k*n:(i+1)*k*n], k, n)
				want := naiveMatMul(ai, bi)
				gi := FromSlice(got.Data()[i*m*n:(i+1)*m*n], m, n)
				requireClose(t, gi, want, "BatchedMatMulInto")
			}
			// TransB: u laid out [bn, n, k].
			u := Randn(rng, 1, bn, n, k)
			scale := float32(0.37)
			BatchedMatMulTransBScaledInto(gotTB, a, u, scale)
			for i := 0; i < bn; i++ {
				ai := FromSlice(a.Data()[i*m*k:(i+1)*m*k], m, k)
				ui := FromSlice(u.Data()[i*n*k:(i+1)*n*k], n, k)
				want := naiveMatMul(ai, naiveTranspose(ui))
				want.ScaleInPlace(scale)
				gi := FromSlice(gotTB.Data()[i*m*n:(i+1)*m*n], m, n)
				requireClose(t, gi, want, "BatchedMatMulTransBScaledInto")
			}
			// TransA: t laid out [bn, k, m], u [bn, k, n] -> [bn, m, n].
			ta := Randn(rng, 1, bn, k, m)
			gotTA = BatchedMatMulTransAInto(New(bn, m, n), ta, b)
			for i := 0; i < bn; i++ {
				ti := FromSlice(ta.Data()[i*k*m:(i+1)*k*m], k, m)
				bi := FromSlice(b.Data()[i*k*n:(i+1)*k*n], k, n)
				want := naiveMatMul(naiveTranspose(ti), bi)
				gi := FromSlice(gotTA.Data()[i*m*n:(i+1)*m*n], m, n)
				requireClose(t, gi, want, "BatchedMatMulTransAInto")
			}
		}
	}
}

// TestElementwiseIntoParity checks the destination-passing elementwise
// kernels in place against out of place, against their direct forms and
// against their definitions.
func TestElementwiseIntoParity(t *testing.T) {
	rng := NewRNG(103)
	x := Randn(rng, 1, 7, 13)

	sm := SoftmaxInto(New(7, 13), x)
	// In-place softmax matches.
	xc := x.Clone()
	SoftmaxInto(xc, xc)
	requireClose(t, xc, sm, "SoftmaxInto in place")
	// Rows sum to one.
	for r := 0; r < 7; r++ {
		var s float64
		for _, v := range sm.Row(r) {
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v", r, s)
		}
	}

	dy := Randn(rng, 1, 7, 13)
	dyc := dy.Clone()
	requireClose(t, SoftmaxBackwardInto(dyc, sm, dyc), SoftmaxBackwardInto(New(7, 13), sm, dy), "SoftmaxBackwardInto in place")

	// GELU is within its bound of the float64 function, and the same
	// bits with the σ cache and without it, and in place over its input.
	requireSame := func(got, want *Tensor, what string) {
		t.Helper()
		if !AllClose(got, want, 0, 0) {
			t.Fatalf("%s: max diff %g from the cached form", what, MaxDiff(got, want))
		}
	}
	sig := New(7, 13)
	wantG := GELUCachedInto(New(7, 13), sig, x)
	geluWithin(t, "GELUCachedInto", wantG.Data(), x.Data(), nil)
	requireSame(GELUCachedInto(New(7, 13), nil, x), wantG, "GELUCachedInto without a cache")
	xc = x.Clone()
	requireSame(GELUCachedInto(xc, nil, xc), wantG, "GELUCachedInto in place")
	geluWithin(t, "GELUBackwardCachedInto", GELUBackwardCachedInto(New(7, 13), x, sig, dy).Data(), x.Data(), dy.Data())

	acc := Randn(rng, 1, 13)
	wantSum := AddInto(New(13), acc, SumRowsAccInto(New(13), x))
	requireClose(t, SumRowsAccInto(acc.Clone(), x), wantSum, "SumRowsAccInto")
}

// TestSplitHeadsRoundTrip proves SplitHeadsInto/MergeHeadsInto are
// exact inverses and that SplitHeadsInto matches Split along dim 1.
func TestSplitHeadsRoundTrip(t *testing.T) {
	rng := NewRNG(104)
	const heads = 4
	x := Randn(rng, 1, 6, 8*heads)
	hm := SplitHeadsInto(New(heads, 6, 8), x, heads)
	// Reference: Split along dim 1.
	ref := Split(x, 1, heads)
	for h := 0; h < heads; h++ {
		slab := FromSlice(hm.Data()[h*6*8:(h+1)*6*8], 6, 8)
		requireClose(t, slab, ref[h], "SplitHeadsInto vs Split")
	}
	back := MergeHeadsInto(New(6, 8*heads), hm, heads)
	requireClose(t, back, x, "MergeHeads(SplitHeads) identity")
}

// TestEnsureReuses verifies Ensure keeps storage when capacity allows
// and allocates otherwise.
func TestEnsureReuses(t *testing.T) {
	a := New(8, 8)
	p := &a.Data()[0]
	b := Ensure(a, 4, 16)
	if &b.Data()[0] != p {
		t.Error("Ensure reallocated despite sufficient capacity")
	}
	c := Ensure(b, 32, 32)
	if &c.Data()[0] == p {
		t.Error("Ensure kept undersized storage")
	}
}
