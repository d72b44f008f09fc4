package plan

// Analytic shard geometry: the planner never constructs real blocks,
// it computes the exact parameter counts parallel.NewTPBlock would
// produce (pinned against the real construction by TestShardNumel).

// blockShardNumel is the parameter count of TP-rank t's shard of one
// transformer block: replicated layer norms, column-sharded QKV and
// FC1 (weights and bias shards), row-sharded WO and FC2 (whose
// unsharded output biases live on t = 0 only), and — under QK-norm —
// the per-head norm parameters replicated on every rank.
func blockShardNumel(dim, heads, tp, t int, qkNorm bool) int {
	d := dim
	n := 2 * d               // LN1 gamma+beta
	n += 3 * (d*d/tp + d/tp) // WQ, WK, WV column shards + bias shards
	n += d / tp * d          // WO row shard
	if t == 0 {
		n += d // WO output bias (unsharded, owned by rank 0)
	}
	if qkNorm {
		n += 4 * (d / heads) // QNorm + KNorm gamma+beta, replicated
	}
	n += 2 * d               // LN2
	n += d*(4*d/tp) + 4*d/tp // FC1 column shard + bias shard
	n += (4 * d / tp) * d    // FC2 row shard
	if t == 0 {
		n += d // FC2 output bias
	}
	return n
}
