package nn

import (
	"fmt"
	"math"

	"orbit/internal/tensor"
)

// MultiHeadAttention is full (non-causal) multi-head self-attention
// over a token sequence [T, D]. When QKNorm is enabled, queries and
// keys are layer-normalized per head before the scaled dot product —
// the ORBIT/ViT-22B stabilization that contains attention-logit growth
// (paper Sec. III-B, "Architecture Optimization").
//
// The projections need not be square: a tensor-parallel shard is this
// type with Heads = H/K local heads over column shards of W_Q/W_K/W_V
// [Dim, Heads·HeadDim] and the matching row shard of W_O, whose bias
// is nil on every rank but the one that owns it (parallel.NewTPBlock
// builds it from the exported fields). The serial block and the shard
// therefore run the same code and cannot drift apart.
//
// All heads are computed in one batched pass, one entry per head. V,
// the context, dOut and dV stay token-major [T, H·d]: the batched
// kernels read and write each head's column block in place. Q and K
// are regrouped into [H, T, d] stacks, and dQ and dK merged back, because
// QK-norm's dγ/dβ sum their rows in head-major order. Scratch is owned
// by the module and reused across steps, so a steady-state
// Forward+Backward allocates nothing.
type MultiHeadAttention struct {
	Dim, Heads, HeadDim int
	QKNorm              bool

	WQ, WK, WV, WO *Linear
	QNorm, KNorm   *LayerNorm // per-head LN over HeadDim, nil unless QKNorm

	qh, kh   *tensor.Tensor // regrouped Q/K projections [H, T, d]
	qn, kn   *tensor.Tensor // effective (post-norm) Q/K stacks
	v        *tensor.Tensor // WV's output [T, H·d], read in place
	probs    *tensor.Tensor // softmax outputs [H, T, T]
	concat   *tensor.Tensor // context [T, H·d]
	maxLogit float32        // max |scaled logit| of the last Forward

	dProbs     *tensor.Tensor // dp then ds, in place [H, T, T]
	dqh, dkh   *tensor.Tensor // head-major grads [H, T, d]
	dq, dk, dv *tensor.Tensor // token-major grads [T, H·d]
}

// NewMultiHeadAttention builds an attention block. dim must be
// divisible by heads.
func NewMultiHeadAttention(name string, dim, heads int, qkNorm bool, rng *tensor.RNG) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by heads %d", dim, heads))
	}
	a := &MultiHeadAttention{
		Dim:     dim,
		Heads:   heads,
		HeadDim: dim / heads,
		QKNorm:  qkNorm,
		WQ:      NewLinear(name+".wq", dim, dim, true, rng),
		WK:      NewLinear(name+".wk", dim, dim, true, rng),
		WV:      NewLinear(name+".wv", dim, dim, true, rng),
		WO:      NewLinear(name+".wo", dim, dim, true, rng),
	}
	if qkNorm {
		a.QNorm = NewLayerNorm(name+".qnorm", a.HeadDim)
		a.KNorm = NewLayerNorm(name+".knorm", a.HeadDim)
	}
	return a
}

// Forward computes self-attention over x: [T, D] -> [T, D]. The
// maximum |scaled logit| is captured while the scores are cache-
// resident (see MaxAttentionLogit).
func (a *MultiHeadAttention) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkRank("MultiHeadAttention", x, 2)
	q, k := a.WQ.Forward(x), a.WK.Forward(x)
	a.v = a.WV.Forward(x)
	t, h, hd := q.Dim(0), a.Heads, a.HeadDim
	a.qh = tensor.SplitHeadsInto(tensor.Ensure(a.qh, h, t, hd), q, h)
	a.kh = tensor.SplitHeadsInto(tensor.Ensure(a.kh, h, t, hd), k, h)
	if a.QKNorm {
		// One LN over the [H, T, d] stack normalizes every head's every
		// token vector; the per-head parameters are shared across heads.
		a.qn = a.QNorm.Forward(a.qh)
		a.kn = a.KNorm.Forward(a.kh)
	} else {
		a.qn, a.kn = a.qh, a.kh
	}
	scale := float32(1 / math.Sqrt(float64(hd)))
	a.probs = tensor.Ensure(a.probs, h, t, t)
	tensor.BatchedMatMulTransBScaledInto(a.probs, a.qn, a.kn, scale)
	a.maxLogit = a.probs.MaxAbs()
	tensor.SoftmaxInto(a.probs, a.probs)
	a.concat = tensor.Ensure(a.concat, t, h*hd)
	tensor.BatchedMatMulInto(a.concat, a.probs, a.v)
	return a.WO.Forward(a.concat)
}

// Backward propagates gradients through the attention block,
// accumulating parameter gradients, and returns dL/dx.
func (a *MultiHeadAttention) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dOut := a.WO.Backward(dy)
	t, h, hd := dOut.Dim(0), a.Heads, a.HeadDim

	// dV_h = P_hᵀ dOut_h; dP_h = dOut_h V_hᵀ; dS_h = softmax'(P_h, dP_h).
	a.dv = tensor.Ensure(a.dv, t, h*hd)
	tensor.BatchedMatMulTransAInto(a.dv, a.probs, dOut)
	a.dProbs = tensor.Ensure(a.dProbs, h, t, t)
	tensor.BatchedMatMulTransBScaledInto(a.dProbs, dOut, a.v, 1)
	tensor.SoftmaxBackwardInto(a.dProbs, a.probs, a.dProbs)
	scale := float32(1 / math.Sqrt(float64(hd)))
	a.dProbs.ScaleInPlace(scale)

	// dQ_h = dS_h K_h; dK_h = dS_hᵀ Q_h (post-norm Q/K).
	a.dqh = tensor.Ensure(a.dqh, h, t, hd)
	tensor.BatchedMatMulInto(a.dqh, a.dProbs, a.kn)
	a.dkh = tensor.Ensure(a.dkh, h, t, hd)
	tensor.BatchedMatMulTransAInto(a.dkh, a.dProbs, a.qn)

	dqh, dkh := a.dqh, a.dkh
	if a.QKNorm {
		dqh = a.QNorm.Backward(dqh)
		dkh = a.KNorm.Backward(dkh)
	}
	a.dq = tensor.MergeHeadsInto(tensor.Ensure(a.dq, t, h*hd), dqh, h)
	a.dk = tensor.MergeHeadsInto(tensor.Ensure(a.dk, t, h*hd), dkh, h)

	dx := a.WQ.Backward(a.dq)
	dx.AddInPlace(a.WK.Backward(a.dk))
	dx.AddInPlace(a.WV.Backward(a.dv))
	return dx
}

// Params returns all trainable parameters of the block.
func (a *MultiHeadAttention) Params() []*Param {
	ps := append([]*Param{}, a.WQ.Params()...)
	ps = append(ps, a.WK.Params()...)
	ps = append(ps, a.WV.Params()...)
	ps = append(ps, a.WO.Params()...)
	if a.QKNorm {
		ps = append(ps, a.QNorm.Params()...)
		ps = append(ps, a.KNorm.Params()...)
	}
	return ps
}

// MaxAttentionLogit returns the largest |scaled logit| observed in the
// most recent forward pass. The value is captured while the scores are
// still resident in cache, so calling this is free. Used by tests and
// diagnostics to demonstrate the QK-norm containment effect.
func (a *MultiHeadAttention) MaxAttentionLogit() float32 { return a.maxLogit }
