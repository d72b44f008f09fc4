package tensor

import (
	"runtime"
	"sync"
)

// This file is the intra-rank parallel runtime: a reusable
// ParallelFor / task-queue API over the persistent worker pool that
// every hot kernel, each an OpKind, dispatches through.
//
// # Determinism rule: fixed tile ownership
//
// Work is always partitioned into NumTiles(n) contiguous tiles whose
// boundaries are a pure function of the item count n — never of the
// worker count, GOMAXPROCS, or which goroutine runs which tile. A
// kernel whose outputs are disjoint per item is therefore
// bit-identical at any worker count for free; a kernel that reduces
// across items must accumulate per-tile partials (indexed by the tile
// argument) and merge them in tile order on the calling goroutine.
// Under that rule every reduction in the repo stays bit-deterministic
// for GOMAXPROCS ∈ {1, 4, 8, ...}, which the GOMAXPROCS-sweep parity
// tests pin.
//
// # Zero allocations
//
// Tasks travel through the pool channel by value and jobs are passed
// as a pointer-shaped interface, so a steady-state dispatch performs
// no heap allocations: callers keep their Job implementations in
// long-lived structs (or package-level sync.Pools) and the WaitGroups
// are recycled. TestParallelForZeroAllocs asserts the steady state.

// Job is one parallel kernel invocation. Tile computes items
// [i0, i1) of tile `tile`; implementations must be safe for
// concurrent Tile calls on distinct tiles and must NOT call
// ParallelFor (or any dispatching kernel) from inside Tile — nested
// dispatch from a pool worker could exhaust the pool and deadlock.
type Job interface {
	Tile(tile, i0, i1 int)
}

// maxTiles is the fixed upper bound on tiles per dispatch: enough
// slack over any realistic worker count that the pool load-balances,
// small enough that per-tile partial-reduction scratch stays cheap.
// It is a constant on purpose — tile boundaries must not move when
// the worker count does.
const maxTiles = 32

// NumTiles returns the tile count ParallelFor uses for n items:
// min(n, maxTiles). It is a pure function of n, so callers can size
// per-tile reduction scratch once and rely on the decomposition never
// changing across worker counts.
func NumTiles(n int) int {
	if n < maxTiles {
		if n < 0 {
			return 0
		}
		return n
	}
	return maxTiles
}

// tileBounds returns the half-open item range of tile t when n items
// are split into `tiles` tiles: contiguous chunks of ceil(n/tiles),
// the last tile taking the remainder.
func tileBounds(n, tiles, t int) (i0, i1 int) {
	chunk := (n + tiles - 1) / tiles
	i0 = t * chunk
	i1 = i0 + chunk
	if i1 > n {
		i1 = n
	}
	if i0 > n {
		i0 = n
	}
	return i0, i1
}

// parallelThreshold is the least estimated arithmetic (OpKind.Flops)
// of a dispatch that forks: below it, cross-worker handoff costs more
// than it saves. It is a constant, not a knob.
const parallelThreshold = 1 << 16

// OpKind names a kernel that dispatches through ParallelFor; Flops, its
// work × weight in multiply-adds, is the runtime's one cost policy. A
// row or elementwise weight is the scalar loop's × the kernel's ns per
// element ÷ the loop's, rounded so that no cutover comes earlier in
// wall time, and never below 1 (docs/PERFORMANCE.md, "The dispatch
// threshold"). Kind (unit of work): weight.
//
//   - OpMatMul, OpQuantMatMul (a multiply-add), OpTranspose (an element): 1
//   - OpSoftmax, OpGELU (an element): 6 = 16 × 1.46 ÷ 3.7 ns (GELU: 16 ×
//     1.4–1.9 ÷ 3.2 = 7–9.5, one exp32 per element)
//   - OpSoftmaxBwd, OpGELUBwd: 1 = 4 × 0.62 ÷ 1.75, 8 × 0.31 ÷ 1.85
//   - OpLayerNorm, OpLayerNormBwd, OpAdamW: 1 = 8 × 0.32–0.6 ÷ 3.2–4.1,
//     8 × 0.38–0.49 ÷ 5.1–5.5 and 8 × 0.5 ÷ 9.3, rounded up
//   - OpFFTRows, OpFFTCols (H·W·bits.Len(H·W) per pass, the whole 2-D
//     transform, where bits.Len(n) is log2 n + 1): 5, of ~5·n·log2 n flops
//   - OpSpectralMul, OpSpectralMulBwd (a bin's complex128 multiply): 8
type OpKind uint8

const (
	OpMatMul OpKind = iota
	OpQuantMatMul
	OpTranspose
	OpSoftmax
	OpSoftmaxBwd
	OpGELU
	OpGELUBwd
	OpLayerNorm
	OpLayerNormBwd
	OpAdamW
	OpFFTRows
	OpFFTCols
	OpSpectralMul
	OpSpectralMulBwd
	OpCount
)

var opWeight = [OpCount]int{
	OpMatMul: 1, OpQuantMatMul: 1, OpTranspose: 1, OpSoftmax: 6, OpSoftmaxBwd: 1, OpGELU: 6,
	OpGELUBwd: 1, OpLayerNorm: 1, OpLayerNormBwd: 1, OpAdamW: 1, OpFFTRows: 5, OpFFTCols: 5,
	OpSpectralMul: 8, OpSpectralMulBwd: 8,
}

// Flops is the arithmetic estimate ParallelFor takes for `work` units
// of kind k.
func (k OpKind) Flops(work int) int { return work * opWeight[k] }

// ParallelFor runs job.Tile over [0, n) split into NumTiles(n) fixed
// tiles. Below parallelThreshold flops (OpKind.Flops), or when the
// runtime allows a single worker, every tile runs serially in tile
// order on the caller — the same decomposition, so results are
// identical either way. The caller always executes the final tile
// itself.
func ParallelFor(n int, flops int, job Job) {
	if n <= 0 {
		return
	}
	tiles := NumTiles(n)
	if tiles == 1 || flops < parallelThreshold || runtime.GOMAXPROCS(0) == 1 {
		for t := 0; t < tiles; t++ {
			i0, i1 := tileBounds(n, tiles, t)
			job.Tile(t, i0, i1)
		}
		return
	}
	forkTiles(n, tiles, job)
}

// poolTask is one tile handoff through the worker channel. Plain
// value, no allocation.
type poolTask struct {
	job    Job
	tile   int
	i0, i1 int
	wg     *sync.WaitGroup
}

var (
	poolOnce  sync.Once
	poolTasks chan poolTask
	poolSize  int
)

// minPoolWorkers keeps enough workers resident for the GOMAXPROCS
// sweeps the determinism tests run (1/4/8) even on hosts with fewer
// cores. Idle workers are parked goroutines; the worker count never
// affects results (fixed tile ownership), only who executes a tile.
const minPoolWorkers = 8

func startPool() {
	poolSize = runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g > poolSize {
		poolSize = g
	}
	if poolSize < minPoolWorkers {
		poolSize = minPoolWorkers
	}
	poolTasks = make(chan poolTask, 8*poolSize)
	for w := 0; w < poolSize; w++ {
		go func() {
			for t := range poolTasks {
				t.job.Tile(t.tile, t.i0, t.i1)
				t.wg.Done()
			}
		}()
	}
}

// wgPool recycles WaitGroups across dispatches; a stack-declared
// WaitGroup would escape to the heap through the task channel.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// forkTiles enqueues tiles 0..tiles-2 on the worker pool, runs the
// final tile on the calling goroutine, and waits. Split out from
// ParallelFor so the allocation test can exercise the pooled path
// directly (AllocsPerRun pins GOMAXPROCS to 1, which would otherwise
// select the serial path).
func forkTiles(n, tiles int, job Job) {
	poolOnce.Do(startPool)
	wg := wgPool.Get().(*sync.WaitGroup)
	last := tiles - 1
	for t := 0; t < last; t++ {
		i0, i1 := tileBounds(n, tiles, t)
		if i0 >= i1 {
			continue
		}
		wg.Add(1)
		poolTasks <- poolTask{job: job, tile: t, i0: i0, i1: i1, wg: wg}
	}
	i0, i1 := tileBounds(n, tiles, last)
	if i0 < i1 {
		job.Tile(last, i0, i1)
	}
	wg.Wait()
	wgPool.Put(wg)
}
