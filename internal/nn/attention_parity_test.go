package nn

import (
	"math"
	"testing"

	"orbit/internal/tensor"
)

// naiveAttention recomputes multi-head attention the way the seed
// implementation did — one 2-D product chain per head over Split
// copies, the head outputs copied side by side — from the same
// weights, serving as the reference the fused batched path must match.
func naiveAttention(a *MultiHeadAttention, x *tensor.Tensor) *tensor.Tensor {
	t := x.Dim(0)
	q := tensor.MatMulBiasInto(tensor.New(t, a.Dim), x, a.WQ.Weight.W, a.WQ.Bias.W)
	k := tensor.MatMulBiasInto(tensor.New(t, a.Dim), x, a.WK.Weight.W, a.WK.Bias.W)
	v := tensor.MatMulBiasInto(tensor.New(t, a.Dim), x, a.WV.Weight.W, a.WV.Bias.W)
	if a.QKNorm {
		q = naiveLayerNorm(a.QNorm, q, a.HeadDim)
		k = naiveLayerNorm(a.KNorm, k, a.HeadDim)
	}
	qh := tensor.Split(q, 1, a.Heads)
	kh := tensor.Split(k, 1, a.Heads)
	vh := tensor.Split(v, 1, a.Heads)
	scale := float32(1 / math.Sqrt(float64(a.HeadDim)))
	concat := tensor.New(t, a.Dim)
	for h := 0; h < a.Heads; h++ {
		s := tensor.MatMulTransBInto(tensor.New(t, t), qh[h], kh[h])
		s.ScaleInPlace(scale)
		o := tensor.MatMulInto(tensor.New(t, a.HeadDim), tensor.SoftmaxInto(s, s), vh[h])
		for r := 0; r < t; r++ {
			copy(concat.Row(r)[h*a.HeadDim:], o.Row(r))
		}
	}
	return tensor.MatMulBiasInto(tensor.New(t, a.Dim), concat, a.WO.Weight.W, a.WO.Bias.W)
}

// naiveLayerNorm applies ln's parameters to every dim-long row of x
// with fresh float64 math, without touching ln's caches.
func naiveLayerNorm(ln *LayerNorm, x *tensor.Tensor, dim int) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	g, b := ln.Gamma.W.Data(), ln.Beta.W.Data()
	for r := 0; r < x.Len()/dim; r++ {
		xr := x.Data()[r*dim : (r+1)*dim]
		var mean float64
		for _, v := range xr {
			mean += float64(v)
		}
		mean /= float64(dim)
		var variance float64
		for _, v := range xr {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(dim)
		rstd := 1 / math.Sqrt(variance+ln.Eps)
		or := out.Data()[r*dim : (r+1)*dim]
		for c, v := range xr {
			or[c] = float32((float64(v)-mean)*rstd)*g[c] + b[c]
		}
	}
	return out
}

// TestFusedAttentionMatchesNaive proves the batched head-major forward
// is numerically identical (within 1e-5) to the per-head reference,
// with and without QK-norm.
func TestFusedAttentionMatchesNaive(t *testing.T) {
	for _, qkNorm := range []bool{false, true} {
		rng := tensor.NewRNG(201)
		a := NewMultiHeadAttention("p", 24, 3, qkNorm, rng)
		x := tensor.Randn(rng, 1, 7, 24)
		got := a.Forward(x)
		want := naiveAttention(a, x)
		if !tensor.AllClose(got, want, 1e-5, 1e-5) {
			t.Errorf("qkNorm=%v: fused attention deviates from reference by %g", qkNorm, tensor.MaxDiff(got, want))
		}
	}
}

// TestFusedAttentionBackwardMatchesNumerical checks the fused backward
// against central differences of the fused forward for both input and
// parameter gradients (tight tolerances — the fused path is exact, not
// approximate).
func TestFusedAttentionBackwardMatchesNumerical(t *testing.T) {
	rng := tensor.NewRNG(202)
	a := NewMultiHeadAttention("p", 16, 4, true, rng)
	x := tensor.Randn(rng, 1, 6, 16)
	checkInputGrad(t, a, x, 3e-2)
	checkParamGrads(t, a, x, 3e-2)
}

// TestFusedAttentionMaxLogitMatchesScores verifies the cached max
// |logit| equals a direct recomputation from Q·Kᵀ — the satellite
// bugfix: the value is captured during Forward, not recomputed per
// call.
func TestFusedAttentionMaxLogitMatchesScores(t *testing.T) {
	rng := tensor.NewRNG(203)
	a := NewMultiHeadAttention("p", 16, 2, false, rng)
	x := tensor.Randn(rng, 1, 5, 16)
	a.Forward(x)

	// Recompute scores naively.
	q := tensor.MatMulBiasInto(tensor.New(5, a.Dim), x, a.WQ.Weight.W, a.WQ.Bias.W)
	k := tensor.MatMulBiasInto(tensor.New(5, a.Dim), x, a.WK.Weight.W, a.WK.Bias.W)
	scale := float32(1 / math.Sqrt(float64(a.HeadDim)))
	var want float32
	qh := tensor.Split(q, 1, a.Heads)
	kh := tensor.Split(k, 1, a.Heads)
	for h := 0; h < a.Heads; h++ {
		s := tensor.MatMulTransBInto(tensor.New(5, 5), qh[h], kh[h])
		s.ScaleInPlace(scale)
		if v := s.MaxAbs(); v > want {
			want = v
		}
	}
	got := a.MaxAttentionLogit()
	if math.Abs(float64(got-want)) > 1e-5*(1+math.Abs(float64(want))) {
		t.Errorf("cached max logit %v, recomputed %v", got, want)
	}
}
