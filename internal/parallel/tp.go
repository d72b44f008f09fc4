package parallel

import (
	"fmt"

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

// NewTPBlock cuts rank's shard of a serial reference block out of a
// tp-wide group: replicated layer norms around an attention and an MLP
// shard. It runs nn.TransformerBlock's own code; its TP group sums
// each Partial between Half and Join.
func NewTPBlock(rank, tp int, ref *nn.TransformerBlock) *nn.TransformerBlock {
	return &nn.TransformerBlock{
		LN1:  replicateNorm("tp.ln1", ref.LN1),
		Attn: shardAttention(ref.Attn, rank, tp),
		LN2:  replicateNorm("tp.ln2", ref.LN2),
		MLP:  shardMLP(ref.MLP, rank, tp),
	}
}

// Replicated returns the parameters NewTPBlock copies whole onto every
// rank of the TP group — the layer norms, QK-norm's included — where
// each rank holds its own cut of every other weight. A sum over the
// group's parameters counts these on one rank only.
func Replicated(b *nn.TransformerBlock) []*nn.Param {
	ps := append(b.LN1.Params(), b.LN2.Params()...)
	if a := b.Attn; a.QKNorm {
		ps = append(append(ps, a.QNorm.Params()...), a.KNorm.Params()...)
	}
	return ps
}
