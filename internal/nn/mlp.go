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
// x = x + Attn(LN1(x)); x = x + MLP(LN2(x)).
type TransformerBlock struct {
	LN1  *LayerNorm
	Attn *MultiHeadAttention
	LN2  *LayerNorm
	MLP  *MLP

	h, out *tensor.Tensor // owned residual-sum buffers
	dh, dx *tensor.Tensor // owned backward buffers
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
	b.h = tensor.Ensure(b.h, x.Shape()...)
	tensor.AddInto(b.h, x, b.Attn.Forward(b.LN1.Forward(x)))
	b.out = tensor.Ensure(b.out, x.Shape()...)
	return tensor.AddInto(b.out, b.h, b.MLP.Forward(b.LN2.Forward(b.h)))
}

// Backward propagates through both residual branches.
func (b *TransformerBlock) Backward(dy *tensor.Tensor) *tensor.Tensor {
	b.dh = tensor.Ensure(b.dh, dy.Shape()...)
	tensor.AddInto(b.dh, dy, b.LN2.Backward(b.MLP.Backward(dy)))
	b.dx = tensor.Ensure(b.dx, dy.Shape()...)
	return tensor.AddInto(b.dx, b.dh, b.LN1.Backward(b.Attn.Backward(b.dh)))
}

// Params returns all block parameters.
func (b *TransformerBlock) Params() []*Param {
	ps := append([]*Param{}, b.LN1.Params()...)
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.MLP.Params()...)
	return ps
}
