package tensor

// Every kernel runs its whole item range on the calling goroutine.
// Parallelism lives one level up — SPMD ranks, infer.Engine workers and
// serving replicas are goroutines — so a kernel never forks. Each
// kernel's doc comment still says which splits of its items give the
// same bits; LayerNorm's dγ/dβ (nn) is the one reduction whose order
// is a function of the row count.

// Job is a kernel over an item range: Tile computes items [i0, i1).
type Job interface {
	Tile(tile, i0, i1 int)
}

// ParallelFor runs job.Tile(0, 0, n) on the caller when n > 0. The
// second argument is unused; it is kept for bench/, the one caller,
// until ROADMAP 1(g) deletes this function.
func ParallelFor(n int, _ int, job Job) {
	if n > 0 {
		job.Tile(0, 0, n)
	}
}
