package parallel

import (
	"fmt"

	"orbit/internal/comm"
	"orbit/internal/nn"
	"orbit/internal/tensor"
)

// shardAttention cuts shard k of K out of a serial reference attention
// block so that the TP group reproduces it exactly: this rank owns
// heads [k·H/K, (k+1)·H/K), i.e. column shards of W_Q/W_K/W_V and the
// matching row shard of W_O — the alternating column/row sharding of
// the paper's Eqn. (2) applied to softmax(QKᵀ)V. The shard is an
// nn.MultiHeadAttention over H/K heads, so it runs the serial block's
// own forward and backward; its output is this rank's partial sum.
func shardAttention(ref *nn.MultiHeadAttention, k, kTotal int) *nn.MultiHeadAttention {
	if ref.Heads%kTotal != 0 {
		panic(fmt.Sprintf("parallel: %d heads not divisible by TP size %d (the paper's TP scalability limit)", ref.Heads, kTotal))
	}
	a := &nn.MultiHeadAttention{
		Dim:     ref.Dim,
		Heads:   ref.Heads / kTotal,
		HeadDim: ref.HeadDim,
		QKNorm:  ref.QKNorm,
		WQ:      columnShard("tp.wq", ref.WQ, k, kTotal),
		WK:      columnShard("tp.wk", ref.WK, k, kTotal),
		WV:      columnShard("tp.wv", ref.WV, k, kTotal),
		WO:      rowShard("tp.wo", ref.WO, k, kTotal),
	}
	if a.QKNorm {
		// Per-head LN parameters are shared across heads, hence
		// replicated on every TP rank.
		a.QNorm = replicateNorm("tp.qnorm", ref.QNorm)
		a.KNorm = replicateNorm("tp.knorm", ref.KNorm)
	}
	return a
}

// shardMLP cuts shard k of K out of a serial reference MLP GeLU(xA)B:
// a column shard of A and the matching row shard of B (the paper's
// Eqn. (2) exactly).
func shardMLP(ref *nn.MLP, k, kTotal int) *nn.MLP {
	return &nn.MLP{
		FC1: columnShard("tp.fc1", ref.FC1, k, kTotal),
		FC2: rowShard("tp.fc2", ref.FC2, k, kTotal),
	}
}

// columnShard cuts output columns (and their bias entries) k of K.
func columnShard(name string, l *nn.Linear, k, kTotal int) *nn.Linear {
	return nn.NewLinearFromWeights(name,
		tensor.ColumnShard(l.Weight.W, k, kTotal),
		shardOfBias(l.Bias.W, k, kTotal))
}

// rowShard cuts input rows k of K. The output bias is not sharded:
// rank 0 alone carries it, every other rank's is nil, so the TP
// all-reduce of the partial outputs adds it exactly once.
func rowShard(name string, l *nn.Linear, k, kTotal int) *nn.Linear {
	var bias *tensor.Tensor
	if k == 0 {
		bias = l.Bias.W.Clone()
	}
	return nn.NewLinearFromWeights(name, tensor.RowShard(l.Weight.W, k, kTotal), bias)
}

// replicateNorm copies a layer norm every TP rank holds in full.
func replicateNorm(name string, ref *nn.LayerNorm) *nn.LayerNorm {
	ln := nn.NewLayerNorm(name, ref.Dim)
	ln.Gamma.W.CopyFrom(ref.Gamma.W)
	ln.Beta.W.CopyFrom(ref.Beta.W)
	return ln
}

// TPBlock is one tensor-parallel transformer block: replicated layer
// norms, an attention and an MLP shard (package nn's own modules over
// cut weights), and what is tensor-parallel about running them — one
// all-reduce after each sub-layer's partial output (forward) and one
// after each column-parallel input gradient (backward), four per block
// per step, the Megatron communication pattern. All reductions run in
// place on the sub-layers' module-owned buffers and the residual sums
// land in block-owned scratch, so a steady-state block step performs
// no heap allocations (the module buffer-ownership convention of
// package nn applies to Forward/Backward results).
type TPBlock struct {
	Rank  int
	Group *comm.Group

	LN1  *nn.LayerNorm
	Attn *nn.MultiHeadAttention // Heads = H/K local heads
	LN2  *nn.LayerNorm
	MLP  *nn.MLP

	h, y, dh, dx *tensor.Tensor // residual-sum scratch
	qkFlat       []float32      // packed QK-norm gradient reduction
}

// NewTPBlock shards a serial reference block for this rank.
func NewTPBlock(rank int, group *comm.Group, ref *nn.TransformerBlock) *TPBlock {
	return &TPBlock{
		Rank:  rank,
		Group: group,
		LN1:   replicateNorm("tp.ln1", ref.LN1),
		Attn:  shardAttention(ref.Attn, rank, group.Size()),
		LN2:   replicateNorm("tp.ln2", ref.LN2),
		MLP:   shardMLP(ref.MLP, rank, group.Size()),
	}
}

// Twin returns a block over b's parameters — the same nn.Params, so the
// same weights and gradient accumulators — with activation caches and
// scratch of its own: one micro-batch can run forward through the twin
// while b still holds another's activations for its backward.
func (b *TPBlock) Twin() *TPBlock {
	a := b.Attn
	return &TPBlock{Rank: b.Rank, Group: b.Group, LN1: twinNorm(b.LN1), LN2: twinNorm(b.LN2),
		Attn: &nn.MultiHeadAttention{Dim: a.Dim, Heads: a.Heads, HeadDim: a.HeadDim, QKNorm: a.QKNorm,
			WQ: twinLinear(a.WQ), WK: twinLinear(a.WK), WV: twinLinear(a.WV), WO: twinLinear(a.WO),
			QNorm: twinNorm(a.QNorm), KNorm: twinNorm(a.KNorm)},
		MLP: &nn.MLP{FC1: twinLinear(b.MLP.FC1), FC2: twinLinear(b.MLP.FC2)}}
}

func twinLinear(l *nn.Linear) *nn.Linear {
	return &nn.Linear{In: l.In, Out: l.Out, Weight: l.Weight, Bias: l.Bias}
}

func twinNorm(l *nn.LayerNorm) *nn.LayerNorm {
	if l == nil {
		return nil
	}
	return &nn.LayerNorm{Dim: l.Dim, Eps: l.Eps, Gamma: l.Gamma, Beta: l.Beta}
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

// ChargeForward posts Forward's two all-reduces, same length and same
// order, with no destination: the group is charged and waits as in
// Forward and nothing is computed. x, Forward's input, sizes the posts.
func (b *TPBlock) ChargeForward(x *tensor.Tensor) {
	b.Group.AllReduceSumInto(b.Rank, x.Data(), nil)
	b.Group.AllReduceSumInto(b.Rank, x.Data(), nil)
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
