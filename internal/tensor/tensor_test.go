package tensor

import (
	"math"
	"testing"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(3, 4)
	if x.Len() != 12 {
		t.Fatalf("Len = %d, want 12", x.Len())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatalf("New not zero-filled: %v", x.Data())
		}
	}
}

func TestFromSliceAndAt(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := x.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %v, want 1", got)
	}
	if got := x.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v, want 6", got)
	}
	x.Set(42, 1, 0)
	if got := x.At(1, 0); got != 42 {
		t.Errorf("Set/At = %v, want 42", got)
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Error("Clone should deep-copy")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{4, 3, 2, 1}, 2, 2)
	if got := AddInto(New(2, 2), a, b).Data(); got[0] != 5 || got[3] != 5 {
		t.Errorf("AddInto = %v", got)
	}
	if got := SubInto(New(2, 2), a, b).Data(); got[0] != -3 || got[3] != 3 {
		t.Errorf("SubInto = %v", got)
	}
	if a.ScaleInPlace(2); a.Data()[3] != 8 {
		t.Errorf("ScaleInPlace = %v", a.Data())
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float32{10, 20, 30}, 3)
	y := AddRowVectorInto(New(2, 3), x, v)
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("AddRowVectorInto[%d] = %v, want %v", i, y.Data()[i], w)
		}
	}
	s := SumRowsAccInto(New(3), x)
	if s.At(0) != 5 || s.At(1) != 7 || s.At(2) != 9 {
		t.Errorf("SumRowsAccInto = %v", s.Data())
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMulInto(New(2, 2), a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMulInto[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMulInto(New(2, 3), New(2, 3), New(2, 3))
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	r := NewRNG(7)
	a := Randn(r, 1, 5, 9)
	b := Randn(r, 1, 4, 9)
	got := MatMulTransBInto(New(5, 4), a, b)
	want := MatMulInto(New(5, 4), a, TransposeInto(New(9, 4), b))
	if !AllClose(got, want, 1e-5, 1e-5) {
		t.Errorf("MatMulTransBInto mismatch, max diff %g", MaxDiff(got, want))
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	r := NewRNG(8)
	a := Randn(r, 1, 9, 5)
	b := Randn(r, 1, 9, 4)
	got := MatMulTransAInto(New(5, 4), a, b)
	want := MatMulInto(New(5, 4), TransposeInto(New(5, 9), a), b)
	if !AllClose(got, want, 1e-5, 1e-5) {
		t.Errorf("MatMulTransAInto mismatch, max diff %g", MaxDiff(got, want))
	}
}

func TestMatMulLargeParallelMatchesSmallPath(t *testing.T) {
	// Large enough to trigger the goroutine pool; verify against a
	// naive reference.
	r := NewRNG(9)
	m, k, n := 64, 48, 56
	a := Randn(r, 1, m, k)
	b := Randn(r, 1, k, n)
	got := MatMulInto(New(m, n), a, b)
	want := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			want.Set(float32(acc), i, j)
		}
	}
	if !AllClose(got, want, 1e-4, 1e-4) {
		t.Errorf("parallel MatMulInto mismatch, max diff %g", MaxDiff(got, want))
	}
}

func TestBatchedMatMul(t *testing.T) {
	r := NewRNG(10)
	a := Randn(r, 1, 3, 4, 5)
	b := Randn(r, 1, 3, 5, 6)
	c := BatchedMatMulInto(New(3, 4, 6), a, b)
	// Check batch 1 against 2-D matmul.
	a1 := FromSlice(a.Data()[1*20:2*20], 4, 5)
	b1 := FromSlice(b.Data()[1*30:2*30], 5, 6)
	want := MatMulInto(New(4, 6), a1, b1)
	got := FromSlice(c.Data()[1*24:2*24], 4, 6)
	if !AllClose(got, want, 1e-5, 1e-5) {
		t.Error("BatchedMatMulInto batch slice mismatch")
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := NewRNG(11)
	a := Randn(r, 1, 37, 53) // odd sizes exercise blocked edges
	b := TransposeInto(New(37, 53), TransposeInto(New(53, 37), a))
	if !AllClose(a, b, 0, 0) {
		t.Error("transpose twice should be identity")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := NewRNG(12)
	x := Randn(r, 3, 5, 7)
	y := SoftmaxInto(New(5, 7), x)
	for row := 0; row < 5; row++ {
		var s float64
		for c := 0; c < 7; c++ {
			v := y.At(row, c)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("softmax row sum = %v", s)
		}
	}
}

func TestSoftmaxStableForLargeLogits(t *testing.T) {
	x := FromSlice([]float32{1000, 1001, 999}, 1, 3)
	y := SoftmaxInto(New(1, 3), x)
	if y.HasNaNOrInf() {
		t.Fatal("softmax overflowed on large logits")
	}
}

func TestSoftmaxBackwardNumerical(t *testing.T) {
	r := NewRNG(13)
	x := Randn(r, 1, 2, 5)
	dy := Randn(r, 1, 2, 5)
	y := SoftmaxInto(New(2, 5), x)
	dx := SoftmaxBackwardInto(New(2, 5), y, dy)
	// Numerical gradient via central differences on sum(dy*softmax(x)).
	const eps = 1e-3
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := Dot(SoftmaxInto(New(2, 5), x), dy)
		x.Data()[i] = orig - eps
		lm := Dot(SoftmaxInto(New(2, 5), x), dy)
		x.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dx.Data()[i])) > 1e-2 {
			t.Fatalf("softmax grad[%d]: numerical %v vs analytic %v", i, num, dx.Data()[i])
		}
	}
}

// geluRef and geluGradRef are the tanh-approximate GELU and its
// derivative in float64, as x·σ(2u) with u = √(2/π)·(x + 0.044715·x³):
// the same function as 0.5·x·(1 + tanh u), in the form that does not
// cancel where tanh u → −1. geluGradRef also returns the magnitude of
// the derivative's two terms σ and x·σ(1−σ)·2u′, which cancel near
// x ≈ −0.75: the scale its error is measured against.
func geluRef(x float32) float64 {
	s, _, _ := sigmoid2u(x)
	return float64(x) * s
}

func geluGradRef(x float32) (grad, scale float64) {
	v := float64(x)
	s, sds, du := sigmoid2u(x)
	return s + v*sds*du, s + math.Abs(v*sds*du)
}

// sigmoid2u returns σ(2u), σ(1−σ) and 2u′ at x, from e^−|2u| so that
// neither overflows.
func sigmoid2u(x float32) (s, sds, du float64) {
	v := float64(x)
	a := 2 * geluC0 * (v + geluC1*v*v*v)
	e := math.Exp(-math.Abs(a))
	s, sds = 1/(1+e), e/((1+e)*(1+e))
	if a < 0 {
		s = e / (1 + e)
	}
	return s, sds, 2 * geluC0 * (1 + 3*geluC1*v*v)
}

// geluTol bounds the float32 GELU's error relative to the float64 one
// (its derivative's, relative to geluGradRef's scale): a few roundings
// of the argument z = −2u pass through e^z as an absolute error in z,
// so the bound grows with |z|.
func geluTol(x float32) float64 {
	v := float64(x)
	return 4e-7 * (2 + math.Abs(2*geluC0*(v+geluC1*v*v*v)))
}

// geluWithin fails unless got[i] is GELU(x[i]) — or, given dy, its
// derivative times dy[i] — within geluTol of the float64 reference, and
// returns the largest error in units of the bound. Below 1e-30 in
// magnitude the error must be absolute: within 1e-30 plus what the
// float32 form's floor on σ gives. e^z saturates at MaxFloat32 (z >
// 88.38, x < −10.1), so σ bottoms out at 1/(1+MaxFloat32) ≈ 2.9e-39,
// not 0.
func geluWithin(t *testing.T, what string, got, x, dy []float32) (worst float64) {
	t.Helper()
	const sigMin = 1 / (1 + math.MaxFloat32)
	for i, v := range x {
		want, scale := geluRef(v), math.Abs(geluRef(v))
		floor := math.Abs(float64(v)) * sigMin
		if dy != nil {
			g, sc := geluGradRef(v)
			_, _, du := sigmoid2u(v)
			want, scale = g*float64(dy[i]), sc*math.Abs(float64(dy[i]))
			floor = math.Abs(float64(dy[i])) * sigMin * (1 + math.Abs(float64(v)*du))
		}
		err := math.Abs(float64(got[i]) - want)
		if scale < 1e-30 {
			if !(err <= 1e-30+2*floor) {
				t.Fatalf("%s(%v) = %v, float64 %v: absolute error %.3g over %.3g", what, v, got[i], want, err, 1e-30+2*floor)
			}
			continue
		}
		if r := err / scale / geluTol(v); !(r <= 1) {
			t.Fatalf("%s(%v) = %v, float64 %v: relative error %.3g over the bound %.3g", what, v, got[i], want, err/scale, geluTol(v))
		} else {
			worst = max(worst, r)
		}
	}
	return worst
}

// geluGrid is x ∈ [−12, 12] in steps of 1/256, then values of either
// sign over twelve decades, 1e-6 … 1e6.
func geluGrid() []float32 {
	var x []float32
	for i := -12 * 256; i <= 12*256; i++ {
		x = append(x, float32(i)/256)
	}
	rng := NewRNG(16)
	for i := 0; i < 4096; i++ {
		x = append(x, float32(rng.Norm()*math.Pow(10, 12*rng.Float64()-6)))
	}
	return x
}

// gelu is GELUCachedInto without a cache, into a new tensor.
func gelu(x *Tensor) *Tensor { return GELUCachedInto(New(x.shape...), nil, x) }

// TestGELUWithinBoundOfFloat64 holds the forward and backward pass,
// kernel and loop, to the float64 function over geluGrid. The tanh form
// 0.5·x·(1 + tanh u) fails it on the negative tail: 1 + tanh u cancels
// from x ≈ −3 and is 0 at x = −5, where GELU is −2.3e-7.
func TestGELUWithinBoundOfFloat64(t *testing.T) {
	xs := geluGrid()
	n := len(xs)
	x, dy, sig := FromSlice(xs, n), Ones(n), New(n)
	defer SetVector(true)
	for _, vector := range []bool{false, true} {
		SetVector(vector)
		y := GELUCachedInto(New(n), sig, x)
		fwd := geluWithin(t, "gelu", y.Data(), xs, nil)
		bwd := geluWithin(t, "gelu'", GELUBackwardCachedInto(New(n), x, sig, dy).Data(), xs, dy.Data())
		t.Logf("vector=%v: largest error %.3g (forward), %.3g (backward) of the bound", useFMA, fwd, bwd)
	}
}

func TestGELUValues(t *testing.T) {
	x := FromSlice([]float32{0, 1, -1, 3, 0.5, -2.5, 7, -7, 12, -12, 1e-4, -5}, 12)
	y := gelu(x)
	if y.At(0) != 0 {
		t.Errorf("GELU(0) = %v", y.At(0))
	}
	if math.Abs(float64(y.At(1))-0.8412) > 1e-3 {
		t.Errorf("GELU(1) = %v, want ~0.8412", y.At(1))
	}
	if math.Abs(float64(y.At(2))+0.1588) > 1e-3 {
		t.Errorf("GELU(-1) = %v, want ~-0.1588", y.At(2))
	}
	if math.Abs(float64(y.At(3))-2.9964) > 1e-3 {
		t.Errorf("GELU(3) = %v, want ~2.9964", y.At(3))
	}
	geluWithin(t, "gelu", y.Data(), x.Data(), nil)
}

func TestGELUBackwardNumerical(t *testing.T) {
	r := NewRNG(14)
	x := Randn(r, 1, 10)
	dy := Ones(10)
	th := New(10)
	GELUCachedInto(New(10), th, x)
	dx := GELUBackwardCachedInto(New(10), x, th, dy)
	geluWithin(t, "gelu'", dx.Data(), x.Data(), dy.Data())
	const eps = 1e-3
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := gelu(x).Sum()
		x.Data()[i] = orig - eps
		lm := gelu(x).Sum()
		x.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dx.Data()[i])) > 1e-2 {
			t.Fatalf("gelu grad[%d]: numerical %v vs analytic %v", i, num, dx.Data()[i])
		}
	}
}

// TestSplitParts checks Split's part shapes and, along dim 0, that the
// parts tile x; TestSplitHeadsRoundTrip pins the parts' values along
// dim 1.
func TestSplitParts(t *testing.T) {
	r := NewRNG(15)
	x := Randn(r, 1, 4, 6)
	parts := Split(x, 1, 3)
	if len(parts) != 3 || parts[0].Dim(1) != 2 {
		t.Fatalf("Split shapes: %v", parts[0].Shape())
	}
	var rows []float32
	for _, p := range Split(x, 0, 2) {
		rows = append(rows, p.Data()...)
	}
	if !AllClose(FromSlice(rows, 4, 6), x, 0, 0) {
		t.Error("the dim-0 parts of x, end to end, are not x")
	}
}

func TestRowColumnShards(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
	}, 2, 4)
	c0 := ColumnShard(x, 0, 2)
	if c0.At(0, 0) != 1 || c0.At(0, 1) != 2 || c0.At(1, 1) != 6 {
		t.Errorf("ColumnShard = %v", c0.Data())
	}
	r1 := RowShard(x, 1, 2)
	if r1.At(0, 0) != 5 || r1.At(0, 3) != 8 {
		t.Errorf("RowShard = %v", r1.Data())
	}
}

func TestSumMeanNormDot(t *testing.T) {
	x := FromSlice([]float32{3, 4}, 2)
	if x.Sum() != 7 {
		t.Errorf("Sum = %v", x.Sum())
	}
	if x.Mean() != 3.5 {
		t.Errorf("Mean = %v", x.Mean())
	}
	if math.Abs(x.Norm()-5) > 1e-9 {
		t.Errorf("Norm = %v", x.Norm())
	}
	if Dot(x, x) != 25 {
		t.Errorf("Dot = %v", Dot(x, x))
	}
}

func TestHasNaNOrInf(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	if x.HasNaNOrInf() {
		t.Error("clean tensor flagged")
	}
	x.Set(float32(math.NaN()), 0)
	if !x.HasNaNOrInf() {
		t.Error("NaN not detected")
	}
	y := FromSlice([]float32{float32(math.Inf(1))}, 1)
	if !y.HasNaNOrInf() {
		t.Error("Inf not detected")
	}
}

func TestMaxAbs(t *testing.T) {
	x := FromSlice([]float32{-5, 3, 2}, 3)
	if x.MaxAbs() != 5 {
		t.Errorf("MaxAbs = %v", x.MaxAbs())
	}
}

func TestMatMulFLOPs(t *testing.T) {
	if got := MatMulFLOPs(2, 3, 4); got != 48 {
		t.Errorf("MatMulFLOPs = %d, want 48", got)
	}
}
