package tensor

import (
	"fmt"
	"math"
)

// AddInto computes dst = t + u elementwise. dst may alias t or u.
func AddInto(dst, t, u *Tensor) *Tensor {
	t.mustMatch(u, "AddInto")
	dst.mustMatch(t, "AddInto")
	d, td, ud := dst.data, t.data, u.data
	for i := addSlices(d, td, ud); i < len(d); i++ {
		d[i] = td[i] + ud[i]
	}
	return dst
}

// SubInto computes dst = t - u elementwise. dst may alias t or u.
func SubInto(dst, t, u *Tensor) *Tensor {
	t.mustMatch(u, "SubInto")
	dst.mustMatch(t, "SubInto")
	d, ud := dst.data, u.data
	for i, v := range t.data {
		d[i] = v - ud[i]
	}
	return dst
}

// AddInPlace accumulates u into t.
func (t *Tensor) AddInPlace(u *Tensor) {
	t.ver++
	t.mustMatch(u, "AddInPlace")
	for i := AddVec(t.data, u.data); i < len(u.data); i++ {
		t.data[i] += u.data[i]
	}
}

// ScaleInPlace multiplies t by s.
func (t *Tensor) ScaleInPlace(s float32) {
	t.ver++
	for i := scaleSlice(t.data, s); i < len(t.data); i++ {
		t.data[i] *= s
	}
}

// AddRowVectorInto computes dst = t + v with the length-cols vector v
// ([cols] or a single row [1, cols]) broadcast over rows. dst may
// alias t.
func AddRowVectorInto(dst, t, v *Tensor) *Tensor {
	if len(t.shape) != 2 || v.Len() != t.shape[1] || v.shape[len(v.shape)-1] != t.shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVectorInto shapes %v, %v", t.shape, v.shape))
	}
	dst.mustMatch(t, "AddRowVectorInto")
	rows, cols := t.shape[0], t.shape[1]
	vd := v.data
	for r := 0; r < rows; r++ {
		tr := t.data[r*cols : (r+1)*cols]
		or := dst.data[r*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			or[c] = tr[c] + vd[c]
		}
	}
	return dst
}

// SumRowsAccInto accumulates dst += Σrows t for a 2-D tensor into the
// length-cols vector dst — the fused bias-gradient reduction.
func SumRowsAccInto(dst, t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: SumRowsAccInto requires a 2-D tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	if dst.Len() != cols {
		panic(fmt.Sprintf("tensor: SumRowsAccInto destination %v, want %d elements", dst.shape, cols))
	}
	d := dst.data
	c0 := sumRowsCols(d, t.data, rows, cols)
	for r := 0; r < rows && c0 < cols; r++ {
		tr := t.data[r*cols : (r+1)*cols]
		for c := c0; c < cols; c++ {
			d[c] += tr[c]
		}
	}
	return dst
}

// Sum returns the sum of all elements, accumulated in float64.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.data)) }

// Dot returns the inner product of two tensors of identical shape,
// accumulated in float64.
func Dot(t, u *Tensor) float64 {
	t.mustMatch(u, "Dot")
	var s float64
	for i, v := range t.data {
		s += float64(v) * float64(u.data[i])
	}
	return s
}

// Norm returns the L2 norm of the tensor, accumulated in float64.
func (t *Tensor) Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// TransposeInto writes the transpose of the 2-D tensor t [rows, cols]
// into dst [cols, rows]. A layer whose weight feeds a t @ uᵀ product
// keeps the transpose and refreshes it when Tensor.Version moves.
func TransposeInto(dst, t *Tensor) *Tensor {
	check2D(dst, t, "TransposeInto")
	rows, cols := t.shape[0], t.shape[1]
	checkDst(dst, cols, rows, "TransposeInto")
	packTranspose(dst.data, t.data, rows, cols)
	return dst
}

// SoftmaxInto applies a numerically stable softmax along the last
// dimension, writing into dst. dst may alias t (in-place softmax).
func SoftmaxInto(dst, t *Tensor) *Tensor {
	dst.mustMatch(t, "SoftmaxInto")
	cols := t.shape[len(t.shape)-1]
	rows := len(t.data) / cols
	for r := softmaxRows(dst.data, t.data, cols, 0, rows); r < rows; r++ {
		softmaxRow(t.data[r*cols:(r+1)*cols], dst.data[r*cols:(r+1)*cols])
	}
	return dst
}

// softmaxRow is the definition of one softmax row; softmaxRows
// (elemvec.go) is its vector form over groups of four rows, the same
// bits per row.
func softmaxRow(in, out []float32) {
	maxv := in[0]
	for _, v := range in[1:] {
		if v > maxv {
			maxv = v
		}
	}
	// Shift then exponentiate through the (vectorized) slice kernel —
	// bit-identical to the elementwise exp32 loop.
	for i, v := range in {
		out[i] = v - maxv
	}
	expSlice(out, out)
	var sum float64
	for _, e := range out {
		sum += float64(e)
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
}

// SoftmaxBackwardInto computes the gradient of a softmax output into
// dst: given y = softmax(x) and dL/dy, dst = y ⊙ (dy − sum(dy ⊙ y)).
// dst may alias dy.
func SoftmaxBackwardInto(dst, y, dy *Tensor) *Tensor {
	y.mustMatch(dy, "SoftmaxBackward")
	dst.mustMatch(y, "SoftmaxBackward")
	cols := y.shape[len(y.shape)-1]
	rows := len(y.data) / cols
	for r := softmaxBwdRows(dst.data, y.data, dy.data, cols, 0, rows); r < rows; r++ {
		yr := y.data[r*cols : (r+1)*cols]
		dr := dy.data[r*cols : (r+1)*cols]
		or := dst.data[r*cols : (r+1)*cols]
		var dot float64
		for i := range yr {
			dot += float64(yr[i]) * float64(dr[i])
		}
		for i := range yr {
			or[i] = yr[i] * (dr[i] - float32(dot))
		}
	}
	return dst
}

// The tanh-approximate GELU 0.5·x·(1 + tanh u), u = √(2/π)·(x +
// 0.044715·x³), is x·σ(2u) = x / (1 + e^z) with z = −2u =
// x·(geluK0 + geluK1·x²): one exponential and one divide. Its
// derivative is σ + x·σ(1−σ)·2u′ = σ − x·σ(1−σ)·z′, z′ = geluK0 +
// geluK3·x².
const (
	geluC0 = 0.7978845608028654 // √(2/π)
	geluC1 = 0.044715
	geluK0 = -2 * geluC0
	geluK1 = -2 * geluC0 * geluC1
	geluK3 = 3 * geluK1
)

// GELUCachedInto computes dst = gelu(x), the tanh-approximate Gaussian
// error linear unit 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))) in its
// one-exponential form x·σ(2u), while storing σ(2u) (the expensive
// inner transcendental) into sig, so the backward pass can reconstruct
// the derivative without another exponential. sig may be nil when no
// backward pass follows (inference); dst may alias x; sig must not
// alias either.
func GELUCachedInto(dst, sig, x *Tensor) *Tensor {
	dst.mustMatch(x, "GELUCachedInto")
	xd, d := x.data, dst.data
	sd := d // no cache wanted: the σ store lands in dst and is overwritten
	if sig != nil {
		sig.mustMatch(x, "GELUCachedInto")
		sd = sig.data
	}
	for i := geluSlice(d, sd, xd); i < len(xd); i++ {
		v := xd[i]
		s := 1 / (1 + exp32(v*(geluK0+geluK1*v*v)))
		sd[i] = s
		d[i] = v * s
	}
	return dst
}

// GELUBackwardCachedInto computes dst = dy ⊙ gelu'(x) using the σ(2u)
// values cached by GELUCachedInto: gelu'(x) = σ + x·σ(1−σ)·2u′ and no
// transcendental is evaluated. dst may alias dy.
func GELUBackwardCachedInto(dst, x, sig, dy *Tensor) *Tensor {
	x.mustMatch(dy, "GELUBackwardCached")
	dst.mustMatch(x, "GELUBackwardCached")
	sig.mustMatch(x, "GELUBackwardCached")
	xd, sd, dyd, d := x.data, sig.data, dy.data, dst.data
	for i := geluBwdSlice(d, xd, sd, dyd); i < len(xd); i++ {
		v, s := xd[i], sd[i]
		dz := geluK0 + geluK3*v*v
		d[i] = dyd[i] * (s - v*s*(1-s)*dz)
	}
	return dst
}

// SplitHeadsInto regroups a token-major sequence [T, H·d] into the
// head-major layout [H, T, d]: dst[h,t,:] = src[t, h·d:(h+1)·d]. This
// is the one data movement fused attention performs per projection,
// replacing the per-head Split copies of the naive path.
func SplitHeadsInto(dst, src *Tensor, heads int) *Tensor {
	if len(src.shape) != 2 || src.shape[1]%heads != 0 {
		panic(fmt.Sprintf("tensor: SplitHeadsInto src %v with %d heads", src.shape, heads))
	}
	t, hd := src.shape[0], src.shape[1]/heads
	if len(dst.shape) != 3 || dst.shape[0] != heads || dst.shape[1] != t || dst.shape[2] != hd {
		panic(fmt.Sprintf("tensor: SplitHeadsInto dst %v, want [%d %d %d]", dst.shape, heads, t, hd))
	}
	d := src.shape[1]
	for ti := 0; ti < t; ti++ {
		row := src.data[ti*d : (ti+1)*d]
		for h := 0; h < heads; h++ {
			copy(dst.data[(h*t+ti)*hd:(h*t+ti+1)*hd], row[h*hd:(h+1)*hd])
		}
	}
	return dst
}

// MergeHeadsInto is the inverse of SplitHeadsInto: head-major
// [H, T, d] back to token-major [T, H·d].
func MergeHeadsInto(dst, src *Tensor, heads int) *Tensor {
	if len(src.shape) != 3 || src.shape[0] != heads {
		panic(fmt.Sprintf("tensor: MergeHeadsInto src %v with %d heads", src.shape, heads))
	}
	t, hd := src.shape[1], src.shape[2]
	if len(dst.shape) != 2 || dst.shape[0] != t || dst.shape[1] != heads*hd {
		panic(fmt.Sprintf("tensor: MergeHeadsInto dst %v, want [%d %d]", dst.shape, t, heads*hd))
	}
	d := heads * hd
	for ti := 0; ti < t; ti++ {
		row := dst.data[ti*d : (ti+1)*d]
		for h := 0; h < heads; h++ {
			copy(row[h*hd:(h+1)*hd], src.data[(h*t+ti)*hd:(h*t+ti+1)*hd])
		}
	}
	return dst
}

// Split slices a tensor into n equal parts along dimension dim.
func Split(t *Tensor, dim, n int) []*Tensor {
	if t.shape[dim]%n != 0 {
		panic(fmt.Sprintf("tensor: Split dim %d size %d not divisible by %d", dim, t.shape[dim], n))
	}
	part := t.shape[dim] / n
	rank := t.Rank()
	inner := 1
	for i := dim + 1; i < rank; i++ {
		inner *= t.shape[i]
	}
	outer := 1
	for i := 0; i < dim; i++ {
		outer *= t.shape[i]
	}
	outShape := append([]int(nil), t.shape...)
	outShape[dim] = part
	run := part * inner
	inRun := t.shape[dim] * inner
	parts := make([]*Tensor, n)
	for k := 0; k < n; k++ {
		p := New(outShape...)
		for o := 0; o < outer; o++ {
			copy(p.data[o*run:(o+1)*run], t.data[o*inRun+k*run:o*inRun+(k+1)*run])
		}
		parts[k] = p
	}
	return parts
}

// ColumnShard returns shard k of K of a 2-D matrix split along columns.
func ColumnShard(t *Tensor, k, kTotal int) *Tensor {
	return Split(t, 1, kTotal)[k]
}

// RowShard returns shard k of K of a 2-D matrix split along rows.
func RowShard(t *Tensor, k, kTotal int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: RowShard requires 2-D")
	}
	rows, cols := t.shape[0], t.shape[1]
	if rows%kTotal != 0 {
		panic(fmt.Sprintf("tensor: RowShard rows %d not divisible by %d", rows, kTotal))
	}
	part := rows / kTotal
	out := New(part, cols)
	copy(out.data, t.data[k*part*cols:(k+1)*part*cols])
	return out
}

// AllClose reports whether t and u agree elementwise within absolute
// tolerance atol plus relative tolerance rtol*|u|.
func AllClose(t, u *Tensor, rtol, atol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.data {
		diff := math.Abs(float64(v) - float64(u.data[i]))
		if diff > atol+rtol*math.Abs(float64(u.data[i])) {
			return false
		}
	}
	return true
}

// MaxDiff returns the maximum absolute elementwise difference.
func MaxDiff(t, u *Tensor) float64 {
	t.mustMatch(u, "MaxDiff")
	var m float64
	for i, v := range t.data {
		d := math.Abs(float64(v) - float64(u.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
