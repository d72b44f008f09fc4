package parallel

import (
	"fmt"

	"orbit/internal/comm"
	"orbit/internal/nn"
	"orbit/internal/tensor"
)

// ShardedAttention is the tensor-parallel slice of a multi-head
// self-attention sub-layer: this rank owns heads [k·H/K, (k+1)·H/K),
// i.e. column shards of W_Q/W_K/W_V and the matching row shard of
// W_O — the alternating column/row sharding of the paper's Eqn. (2)
// applied to softmax(QKᵀ)V. The local heads run through the same
// nn.AttentionCore as the serial reference, so the TP slice computes
// exactly what the serial block computes.
type ShardedAttention struct {
	Dim, LocalHeads, HeadDim int
	QKNorm                   bool
	// HasOutBias marks the rank that owns the (unsharded) output
	// bias so the TP all-reduce adds it exactly once.
	HasOutBias bool

	WQ, WK, WV   *nn.Linear // Dim -> LocalDim column shards
	WO           *nn.Linear // LocalDim -> Dim row shard
	QNorm, KNorm *nn.LayerNorm

	core nn.AttentionCore
}

// NewShardedAttention cuts shard k of K out of a serial reference
// attention block so that the TP group reproduces it exactly.
func NewShardedAttention(ref *nn.MultiHeadAttention, k, kTotal int) *ShardedAttention {
	if ref.Heads%kTotal != 0 {
		panic(fmt.Sprintf("parallel: %d heads not divisible by TP size %d (the paper's TP scalability limit)", ref.Heads, kTotal))
	}
	a := &ShardedAttention{
		Dim:        ref.Dim,
		LocalHeads: ref.Heads / kTotal,
		HeadDim:    ref.HeadDim,
		QKNorm:     ref.QKNorm,
		HasOutBias: k == 0,
	}
	shard := func(name string, l *nn.Linear) *nn.Linear {
		return nn.NewLinearFromWeights(name,
			tensor.ColumnShard(l.Weight.W, k, kTotal),
			shardOfBias(l.Bias.W, k, kTotal))
	}
	a.WQ = shard("tp.wq", ref.WQ)
	a.WK = shard("tp.wk", ref.WK)
	a.WV = shard("tp.wv", ref.WV)
	var outBias *tensor.Tensor
	if a.HasOutBias {
		outBias = ref.WO.Bias.W.Clone()
	}
	a.WO = nn.NewLinearFromWeights("tp.wo", tensor.RowShard(ref.WO.Weight.W, k, kTotal), outBias)
	if a.QKNorm {
		// Per-head LN parameters are shared across heads, hence
		// replicated on every TP rank.
		a.QNorm = nn.NewLayerNorm("tp.qnorm", ref.HeadDim)
		a.QNorm.Gamma.W.CopyFrom(ref.QNorm.Gamma.W)
		a.QNorm.Beta.W.CopyFrom(ref.QNorm.Beta.W)
		a.KNorm = nn.NewLayerNorm("tp.knorm", ref.HeadDim)
		a.KNorm.Gamma.W.CopyFrom(ref.KNorm.Gamma.W)
		a.KNorm.Beta.W.CopyFrom(ref.KNorm.Beta.W)
	}
	a.core = nn.AttentionCore{Heads: a.LocalHeads, HeadDim: a.HeadDim, QNorm: a.QNorm, KNorm: a.KNorm}
	return a
}

// Forward computes this rank's partial attention output [T, Dim]; the
// TP group must all-reduce-sum the partials (done by TPBlock).
func (a *ShardedAttention) Forward(x *tensor.Tensor) *tensor.Tensor {
	concat := a.core.Forward(a.WQ.Forward(x), a.WK.Forward(x), a.WV.Forward(x))
	return a.WO.Forward(concat)
}

// Backward takes the (replicated) upstream gradient and returns this
// rank's partial input gradient; the TP group must all-reduce-sum the
// partials.
func (a *ShardedAttention) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dq, dk, dv := a.core.Backward(a.WO.Backward(dy))
	dx := a.WQ.Backward(dq)
	dx.AddInPlace(a.WK.Backward(dk))
	dx.AddInPlace(a.WV.Backward(dv))
	return dx
}

// Params returns this shard's parameters (QK-norm parameters are
// replicated across the TP group and included on every rank).
func (a *ShardedAttention) Params() []*nn.Param {
	ps := append([]*nn.Param{}, a.WQ.Params()...)
	ps = append(ps, a.WK.Params()...)
	ps = append(ps, a.WV.Params()...)
	ps = append(ps, a.WO.Params()...)
	if a.QKNorm {
		ps = append(ps, a.QNorm.Params()...)
		ps = append(ps, a.KNorm.Params()...)
	}
	return ps
}

// ShardedMLP is the tensor-parallel slice of the feed-forward
// sub-layer GeLU(xA)B: a column shard of A and the matching row shard
// of B (the paper's Eqn. (2) exactly).
type ShardedMLP struct {
	FC1 *nn.Linear // Dim -> Hidden/K column shard
	FC2 *nn.Linear // Hidden/K -> Dim row shard
	// HasOutBias marks the single rank owning FC2's bias.
	HasOutBias bool

	h, g, th, dh *tensor.Tensor // pre-activation, GELU out, tanh cache, grad
}

// NewShardedMLP cuts shard k of K out of a serial reference MLP.
func NewShardedMLP(ref *nn.MLP, k, kTotal int) *ShardedMLP {
	m := &ShardedMLP{HasOutBias: k == 0}
	m.FC1 = nn.NewLinearFromWeights("tp.fc1",
		tensor.ColumnShard(ref.FC1.Weight.W, k, kTotal),
		shardOfBias(ref.FC1.Bias.W, k, kTotal))
	var outBias *tensor.Tensor
	if m.HasOutBias {
		outBias = ref.FC2.Bias.W.Clone()
	}
	m.FC2 = nn.NewLinearFromWeights("tp.fc2", tensor.RowShard(ref.FC2.Weight.W, k, kTotal), outBias)
	return m
}

// Forward computes the partial feed-forward output x·A_k·B_k.
func (m *ShardedMLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	m.h = m.FC1.Forward(x)
	m.g = tensor.Ensure(m.g, m.h.Shape()...)
	m.th = tensor.Ensure(m.th, m.h.Shape()...)
	return m.FC2.Forward(tensor.GELUCachedInto(m.g, m.th, m.h))
}

// Backward returns the partial input gradient.
func (m *ShardedMLP) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dGelu := m.FC2.Backward(dy)
	m.dh = tensor.Ensure(m.dh, m.h.Shape()...)
	return m.FC1.Backward(tensor.GELUBackwardCachedInto(m.dh, m.h, m.th, dGelu))
}

// Params returns the shard's parameters.
func (m *ShardedMLP) Params() []*nn.Param {
	return append(append([]*nn.Param{}, m.FC1.Params()...), m.FC2.Params()...)
}

// TPBlock is one tensor-parallel transformer block: replicated layer
// norms, sharded attention and MLP, with one all-reduce after each
// sub-layer's partial output (forward) and one after each column-
// parallel input gradient (backward) — four all-reduces per block per
// step, the Megatron communication pattern. All reductions run in
// place on the sub-layers' module-owned buffers and the residual sums
// land in block-owned scratch, so a steady-state block step performs
// no heap allocations (the module buffer-ownership convention of
// package nn applies to Forward/Backward results).
type TPBlock struct {
	Rank  int
	Group *comm.Group

	LN1  *nn.LayerNorm
	Attn *ShardedAttention
	LN2  *nn.LayerNorm
	MLP  *ShardedMLP

	h, y, dh, dx *tensor.Tensor // residual-sum scratch
	qkFlat       []float32      // packed QK-norm gradient reduction
}

// NewTPBlock shards a serial reference block for this rank.
func NewTPBlock(rank int, group *comm.Group, ref *nn.TransformerBlock) *TPBlock {
	b := &TPBlock{
		Rank:  rank,
		Group: group,
		LN1:   nn.NewLayerNorm("tp.ln1", ref.LN1.Dim),
		Attn:  NewShardedAttention(ref.Attn, rank, group.Size()),
		LN2:   nn.NewLayerNorm("tp.ln2", ref.LN2.Dim),
		MLP:   NewShardedMLP(ref.MLP, rank, group.Size()),
	}
	b.LN1.Gamma.W.CopyFrom(ref.LN1.Gamma.W)
	b.LN1.Beta.W.CopyFrom(ref.LN1.Beta.W)
	b.LN2.Gamma.W.CopyFrom(ref.LN2.Gamma.W)
	b.LN2.Beta.W.CopyFrom(ref.LN2.Beta.W)
	return b
}

// allReduceInPlace sums a tensor across the TP group in place (the
// reduction collectives permit dst aliasing the rank's input).
func (b *TPBlock) allReduceInPlace(t *tensor.Tensor) *tensor.Tensor {
	b.Group.AllReduceSumInto(b.Rank, t.Data(), t.Data())
	return t
}

// Forward applies the block to replicated input [T, D]. The result is
// a block-owned buffer, valid until this block's next Forward.
func (b *TPBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	partial := b.allReduceInPlace(b.Attn.Forward(b.LN1.Forward(x)))
	b.h = tensor.Ensure(b.h, x.Shape()...)
	tensor.AddInto(b.h, x, partial)
	partial = b.allReduceInPlace(b.MLP.Forward(b.LN2.Forward(b.h)))
	b.y = tensor.Ensure(b.y, x.Shape()...)
	return tensor.AddInto(b.y, b.h, partial)
}

// Backward propagates the replicated upstream gradient and returns a
// block-owned buffer, valid until this block's next Backward.
//
// The QK-norm parameters are replicated on every TP rank but each
// rank's backward only accumulates the contribution of its local
// heads, so their gradients are summed across the group here — packed
// into one flat buffer so the four tiny reductions cost a single
// rendezvous. (LN1 and LN2 need no reduction: they see identical
// replicated activations, so their gradients are already identical.)
// Backward must therefore be called exactly once per ZeroGrads cycle.
func (b *TPBlock) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dPartial := b.allReduceInPlace(b.MLP.Backward(dy))
	b.dh = tensor.Ensure(b.dh, dy.Shape()...)
	tensor.AddInto(b.dh, dy, b.LN2.Backward(dPartial))
	dPartial = b.Attn.Backward(b.dh)
	if b.Attn.QKNorm && b.Group.Size() > 1 {
		b.reduceQKNormGrads()
	}
	b.allReduceInPlace(dPartial)
	b.dx = tensor.Ensure(b.dx, dy.Shape()...)
	return tensor.AddInto(b.dx, b.dh, b.LN1.Backward(dPartial))
}

// reduceQKNormGrads sums the replicated QK-norm parameter gradients
// across the TP group in one packed all-reduce.
func (b *TPBlock) reduceQKNormGrads() {
	ps := [4]*nn.Param{
		b.Attn.QNorm.Gamma, b.Attn.QNorm.Beta,
		b.Attn.KNorm.Gamma, b.Attn.KNorm.Beta,
	}
	n := 0
	for _, p := range ps {
		n += p.Grad.Len()
	}
	if cap(b.qkFlat) < n {
		b.qkFlat = make([]float32, n)
	}
	flat := b.qkFlat[:n]
	off := 0
	for _, p := range ps {
		copy(flat[off:], p.Grad.Data())
		off += p.Grad.Len()
	}
	b.Group.AllReduceSumInto(b.Rank, flat, flat)
	off = 0
	for _, p := range ps {
		copy(p.Grad.Data(), flat[off:off+p.Grad.Len()])
		off += p.Grad.Len()
	}
}

// Params returns this rank's shard parameters plus the replicated
// layer norms.
func (b *TPBlock) Params() []*nn.Param {
	ps := append([]*nn.Param{}, b.LN1.Params()...)
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.MLP.Params()...)
	return ps
}
