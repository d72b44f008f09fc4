package pp

import "fmt"

// UniformPartition cuts count equal-cost blocks — the ViT case, where
// every transformer block prices identically — into stages contiguous,
// non-empty ranges with the optimal bottleneck q = ⌈count/stages⌉.
// Among all optimal cuts it takes the earliest: stage s ends at the
// smallest index that still leaves the S−1−s later stages at most q
// blocks each, max(start+1, count − (S−1−s)·q). Leading stages are
// therefore as small as optimality permits, which suits 1F1B (early
// stages hold the most in-flight micro-batches), and every rank
// derives the identical cut (SPMD construction depends on it).
func UniformPartition(count, stages int) ([][2]int, error) {
	if stages < 1 {
		return nil, fmt.Errorf("pp: need at least one stage, got %d", stages)
	}
	if count < stages {
		return nil, fmt.Errorf("pp: cannot cut %d blocks into %d non-empty stages", count, stages)
	}
	q := (count + stages - 1) / stages
	out := make([][2]int, stages)
	start := 0
	for s := range out {
		end := max(start+1, count-(stages-1-s)*q)
		out[s] = [2]int{start, end}
		start = end
	}
	return out, nil
}
