package nn

import "orbit/internal/tensor"

// MLP is the transformer feed-forward sub-layer:
// y = GELU(x·A + a)·B + b with hidden width typically 4×dim. This is
// exactly the `GeLU(xA)B` two-matmul chain the Hybrid-STOP paper
// analyzes (Sec. III-A).
type MLP struct {
	FC1, FC2 *Linear

	h   *tensor.Tensor // cached pre-activation for GELU backward
	g   *tensor.Tensor // owned GELU output buffer
	sig *tensor.Tensor // cached σ(2u) values from the GELU forward
	dh  *tensor.Tensor // owned pre-activation gradient buffer
}

// NewMLP builds an MLP with the given input and hidden widths.
func NewMLP(name string, dim, hidden int, rng *tensor.RNG) *MLP {
	return &MLP{
		FC1: NewLinear(name+".fc1", dim, hidden, true, rng),
		FC2: NewLinear(name+".fc2", hidden, dim, true, rng),
	}
}

// Forward computes the feed-forward transform on [rows, dim]. The
// GELU's σ(2u) values are cached so Backward reconstructs the
// derivative arithmetically instead of re-evaluating the exponential.
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	m.h = m.FC1.Forward(x)
	m.g = tensor.Ensure(m.g, m.h.Shape()...)
	m.sig = tensor.Ensure(m.sig, m.h.Shape()...)
	return m.FC2.Forward(tensor.GELUCachedInto(m.g, m.sig, m.h))
}

// Backward propagates through FC2, GELU, FC1.
func (m *MLP) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dGelu := m.FC2.Backward(dy)
	m.dh = tensor.Ensure(m.dh, m.h.Shape()...)
	return m.FC1.Backward(tensor.GELUBackwardCachedInto(m.dh, m.h, m.sig, dGelu))
}

// Params returns both projections' parameters.
func (m *MLP) Params() []*Param {
	return append(append([]*Param{}, m.FC1.Params()...), m.FC2.Params()...)
}

// TransformerBlock is one pre-norm transformer layer:
// x = x + Attn(LN1(x)); x = x + MLP(LN2(x)). A tensor-parallel shard
// (parallel.NewTPBlock) is this type over cut weights: each sub-layer
// then yields a partial sum its TP group adds up between Half and Join.
type TransformerBlock struct {
	LN1  *LayerNorm
	Attn *MultiHeadAttention
	LN2  *LayerNorm
	MLP  *MLP

	in   *tensor.Tensor    // the running half's input, then its join's result
	part *tensor.Tensor    // the running half's output
	res  [4]*tensor.Tensor // owned results of Join 0–3: h, out, dh, dx
	qk   []float32         // packed QK-norm gradients, Partial(4)
}

// NewTransformerBlock builds a block with hidden = 4×dim, matching the
// ClimaX/ORBIT configuration.
func NewTransformerBlock(name string, dim, heads int, qkNorm bool, rng *tensor.RNG) *TransformerBlock {
	return &TransformerBlock{
		LN1:  NewLayerNorm(name+".ln1", dim),
		Attn: NewMultiHeadAttention(name+".attn", dim, heads, qkNorm, rng),
		LN2:  NewLayerNorm(name+".ln2", dim),
		MLP:  NewMLP(name+".mlp", dim, 4*dim, rng),
	}
}

// Forward applies the block to a token sequence [T, D].
func (b *TransformerBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	for h := 0; h < 2; h++ {
		b.Half(h, x)
		x = b.Join(h)
	}
	return x
}

// Backward propagates through both residual branches.
func (b *TransformerBlock) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for h := 2; h < 4; h++ {
		b.Half(h, dy)
		dy = b.Join(h)
	}
	return dy
}

// Half runs sub-layer h on x: 0 the attention forward, 1 the MLP
// forward, 2 the MLP backward, 3 the attention backward. Its output
// waits in Partial(h) for Join(h).
func (b *TransformerBlock) Half(h int, x *tensor.Tensor) {
	b.in = x
	switch h {
	case 0:
		b.part = b.Attn.Forward(b.LN1.Forward(x))
	case 1:
		b.part = b.MLP.Forward(b.LN2.Forward(x))
	case 2:
		b.part = b.MLP.Backward(x)
	case 3:
		b.part = b.Attn.Backward(x)
	}
}

// Partial returns the buffer a shard's TP group sums in place before
// Join(h): half h's output, or for h = 4 the QK-norm parameter
// gradients packed into one buffer (replicated parameters, but each
// rank accumulates only its own heads' share; LN1 and LN2 see
// replicated activations and need no sum).
func (b *TransformerBlock) Partial(h int) []float32 {
	if h < 4 {
		return b.part.Data()
	}
	b.qk = b.qk[:0]
	for _, g := range b.qkGrads() {
		b.qk = append(b.qk, g.Data()...)
	}
	return b.qk
}

// Join completes half h: it adds the residual — through LN2 / LN1's
// backward in halves 2 / 3 — into a block-owned buffer, valid until
// the next Join(h), and returns it. Join(4) unpacks Partial(4) into the
// QK-norm gradients and returns the last join's result unchanged.
func (b *TransformerBlock) Join(h int) *tensor.Tensor {
	p := b.part
	switch h {
	case 2:
		p = b.LN2.Backward(p)
	case 3:
		p = b.LN1.Backward(p)
	case 4:
		off := 0
		for _, g := range b.qkGrads() {
			off += copy(g.Data(), b.qk[off:])
		}
		return b.in
	}
	b.res[h] = tensor.Ensure(b.res[h], b.in.Shape()...)
	b.in = tensor.AddInto(b.res[h], b.in, p)
	return b.in
}

func (b *TransformerBlock) qkGrads() [4]*tensor.Tensor {
	q, k := b.Attn.QNorm, b.Attn.KNorm
	return [4]*tensor.Tensor{q.Gamma.Grad, q.Beta.Grad, k.Gamma.Grad, k.Beta.Grad}
}

// Params returns all block parameters.
func (b *TransformerBlock) Params() []*Param {
	ps := append([]*Param{}, b.LN1.Params()...)
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.MLP.Params()...)
	return ps
}

// Twin returns a block over b's parameters — the same Params, so the
// same weights and gradient accumulators — with caches of its own: one
// micro-batch can run forward through the twin while b still holds
// another's activations for its backward.
func (b *TransformerBlock) Twin() *TransformerBlock {
	a := b.Attn
	return &TransformerBlock{LN1: twinNorm(b.LN1), LN2: twinNorm(b.LN2),
		Attn: &MultiHeadAttention{Dim: a.Dim, Heads: a.Heads, HeadDim: a.HeadDim, QKNorm: a.QKNorm,
			WQ: twinLinear(a.WQ), WK: twinLinear(a.WK), WV: twinLinear(a.WV), WO: twinLinear(a.WO),
			QNorm: twinNorm(a.QNorm), KNorm: twinNorm(a.KNorm)},
		MLP: &MLP{FC1: twinLinear(b.MLP.FC1), FC2: twinLinear(b.MLP.FC2)}}
}

func twinLinear(l *Linear) *Linear {
	return &Linear{In: l.In, Out: l.Out, Weight: l.Weight, Bias: l.Bias}
}

func twinNorm(l *LayerNorm) *LayerNorm {
	if l == nil {
		return nil
	}
	return &LayerNorm{Dim: l.Dim, Eps: l.Eps, Gamma: l.Gamma, Beta: l.Beta}
}
