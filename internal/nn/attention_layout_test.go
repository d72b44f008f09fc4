package nn

import (
	"fmt"
	"math"
	"testing"

	"orbit/internal/tensor"
)

// regroupAttention runs a's forward and backward the way the block did
// while every head was regrouped: Q, K, V and dOut split into [H, T, d]
// stacks, the context and dQ, dK, dV merged back to token-major, every
// product over stacks. It is the reference the in-place layout must
// match bit for bit.
func regroupAttention(a *MultiHeadAttention, x, dy *tensor.Tensor) (y, dx *tensor.Tensor) {
	t, h, hd := x.Dim(0), a.Heads, a.HeadDim
	split := func(src *tensor.Tensor) *tensor.Tensor { return tensor.SplitHeadsInto(tensor.New(h, t, hd), src, h) }
	merge := func(src *tensor.Tensor) *tensor.Tensor { return tensor.MergeHeadsInto(tensor.New(t, h*hd), src, h) }
	qh, kh, vh := split(a.WQ.Forward(x)), split(a.WK.Forward(x)), split(a.WV.Forward(x))
	qn, kn := qh, kh
	if a.QKNorm {
		qn, kn = a.QNorm.Forward(qh), a.KNorm.Forward(kh)
	}
	scale := float32(1 / math.Sqrt(float64(hd)))
	probs := tensor.BatchedMatMulTransBScaledInto(tensor.New(h, t, t), qn, kn, scale)
	tensor.SoftmaxInto(probs, probs)
	outH := tensor.BatchedMatMulInto(tensor.New(h, t, hd), probs, vh)
	y = a.WO.Forward(merge(outH)).Clone()

	dOutH := split(a.WO.Backward(dy))
	dvh := tensor.BatchedMatMulTransAInto(tensor.New(h, t, hd), probs, dOutH)
	dProbs := tensor.BatchedMatMulTransBScaledInto(tensor.New(h, t, t), dOutH, vh, 1)
	tensor.SoftmaxBackwardInto(dProbs, probs, dProbs)
	dProbs.ScaleInPlace(scale)
	dqh := tensor.BatchedMatMulInto(tensor.New(h, t, hd), dProbs, kn)
	dkh := tensor.BatchedMatMulTransAInto(tensor.New(h, t, hd), dProbs, qn)
	if a.QKNorm {
		dqh, dkh = a.QNorm.Backward(dqh), a.KNorm.Backward(dkh)
	}
	dq, dk, dv := merge(dqh), merge(dkh), merge(dvh)
	dx = a.WQ.Backward(dq).Clone()
	dx.AddInPlace(a.WK.Backward(dk))
	dx.AddInPlace(a.WV.Backward(dv))
	return y, dx
}

// tpShardAttention builds a tensor-parallel shard's block: heads local
// heads of headDim over dim-wide tokens, projections [dim, heads·headDim]
// and W_O [heads·headDim, dim].
func tpShardAttention(dim, heads, headDim int, qkNorm bool, rng *tensor.RNG) *MultiHeadAttention {
	w := heads * headDim
	a := &MultiHeadAttention{
		Dim: dim, Heads: heads, HeadDim: headDim, QKNorm: qkNorm,
		WQ: NewLinear("s.wq", dim, w, true, rng),
		WK: NewLinear("s.wk", dim, w, true, rng),
		WV: NewLinear("s.wv", dim, w, true, rng),
		WO: NewLinear("s.wo", w, dim, true, rng),
	}
	if qkNorm {
		a.QNorm = NewLayerNorm("s.qnorm", headDim)
		a.KNorm = NewLayerNorm("s.knorm", headDim)
	}
	for _, p := range a.Params() {
		if p.W.Rank() == 1 {
			copy(p.W.Data(), tensor.Randn(rng, 0.1, p.W.Len()).Data())
		}
	}
	return a
}

// TestAttentionInPlaceHeadsMatchRegroup pins the block's layout change
// to the regrouping it replaced: over full blocks and a TP shard of two
// local heads, QK-norm on and off, the output, dx and every parameter
// gradient of two forward/backward pairs must equal regroupAttention's
// on a twin block under Float32bits.
func TestAttentionInPlaceHeadsMatchRegroup(t *testing.T) {
	cases := []struct {
		name                string
		dim, heads, headDim int
		tokens              int
		tp                  bool
	}{
		{"full D24 H3", 24, 3, 8, 7, false},
		{"full D16 H4", 16, 4, 4, 13, false},
		{"full D64 H4", 64, 4, 16, 32, false},
		{"TP shard 2 of 4 heads", 16, 2, 4, 9, true},
		{"TP shard 2 of 4 heads d16", 64, 2, 16, 11, true},
	}
	for _, c := range cases {
		for _, qkNorm := range []bool{false, true} {
			build := func() *MultiHeadAttention {
				rng := tensor.NewRNG(251)
				if c.tp {
					return tpShardAttention(c.dim, c.heads, c.headDim, qkNorm, rng)
				}
				return NewMultiHeadAttention("p", c.dim, c.heads, qkNorm, rng)
			}
			a, ref := build(), build()
			rng := tensor.NewRNG(252)
			for pass := 0; pass < 2; pass++ {
				what := fmt.Sprintf("%s qkNorm=%v pass %d", c.name, qkNorm, pass)
				x, dy := tensor.Randn(rng, 1, c.tokens, c.dim), tensor.Randn(rng, 1, c.tokens, c.dim)
				y := a.Forward(x).Clone()
				dx := a.Backward(dy)
				wantY, wantDx := regroupAttention(ref, x, dy)
				sameBits(t, what+" output", y.Data(), wantY.Data())
				sameBits(t, what+" dx", dx.Data(), wantDx.Data())
				ps, rs := a.Params(), ref.Params()
				for i := range ps {
					sameBits(t, what+" grad "+ps[i].Name, ps[i].Grad.Data(), rs[i].Grad.Data())
				}
			}
		}
	}
}
