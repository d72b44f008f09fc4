package tensor

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestTileDecomposition pins the determinism contract: tile count and
// boundaries are pure functions of the item count, cover [0, n)
// exactly once, and never depend on anything else.
func TestTileDecomposition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 31, 32, 33, 100, 1 << 12, 12345} {
		tiles := NumTiles(n)
		if n == 0 && tiles != 0 {
			t.Fatalf("NumTiles(0) = %d", tiles)
		}
		if n > 0 && (tiles < 1 || tiles > maxTiles || tiles > n) {
			t.Fatalf("NumTiles(%d) = %d", n, tiles)
		}
		next := 0
		for tt := 0; tt < tiles; tt++ {
			i0, i1 := tileBounds(n, tiles, tt)
			if i0 != next || i1 < i0 || i1 > n {
				t.Fatalf("n=%d tile %d: bounds [%d,%d), expected start %d", n, tt, i0, i1, next)
			}
			next = i1
		}
		if tiles > 0 {
			if _, i1 := tileBounds(n, tiles, tiles-1); i1 != n {
				t.Fatalf("n=%d: last tile ends at %d", n, i1)
			}
		}
	}
}

// markJob counts how many times each item is executed.
type markJob struct{ hits []int32 }

func (j *markJob) Tile(_, i0, i1 int) {
	for i := i0; i < i1; i++ {
		atomic.AddInt32(&j.hits[i], 1)
	}
}

// TestParallelForCoversEachItemOnce checks both the serial fallback
// and the pooled fork execute every item exactly once.
func TestParallelForCoversEachItemOnce(t *testing.T) {
	for _, n := range []int{1, 5, 32, 33, 1000} {
		j := &markJob{hits: make([]int32, n)}
		ParallelFor(n, 1<<30, j) // above threshold: forks when GOMAXPROCS > 1
		for i, h := range j.hits {
			if h != 1 {
				t.Fatalf("n=%d parallel: item %d executed %d times", n, i, h)
			}
		}
		j = &markJob{hits: make([]int32, n)}
		ParallelFor(n, 0, j) // below threshold: serial path
		for i, h := range j.hits {
			if h != 1 {
				t.Fatalf("n=%d serial: item %d executed %d times", n, i, h)
			}
		}
		j = &markJob{hits: make([]int32, n)}
		forkTiles(n, NumTiles(n), j) // pooled path regardless of GOMAXPROCS
		for i, h := range j.hits {
			if h != 1 {
				t.Fatalf("n=%d forked: item %d executed %d times", n, i, h)
			}
		}
	}
}

// sumJob reduces via per-tile partials merged in tile order — the
// pattern threaded reductions (LayerNorm backward) must follow.
type sumJob struct {
	data []float32
	part [maxTiles]float64
}

func (j *sumJob) Tile(tile, i0, i1 int) {
	var s float64
	for _, v := range j.data[i0:i1] {
		s += float64(v)
	}
	j.part[tile] = s
}

func (j *sumJob) total(tiles int) float64 {
	var s float64
	for t := 0; t < tiles; t++ {
		s += j.part[t]
	}
	return s
}

// TestParallelForDeterministicAcrossWorkerCounts runs a reduction
// over per-tile partials on the forked path at GOMAXPROCS 1, 4 and 8
// and demands the same sum: the fixed tile decomposition means the
// reduction sequence cannot move with the worker count. Every OpKind's
// kernel gets the same sweep in opkind_test.go.
func TestParallelForDeterministicAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	j := &sumJob{data: Randn(NewRNG(11), 1, 512, 256).Data()}
	items := len(j.data)
	var ref float64
	for i, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		ParallelFor(items, 1<<30, j)
		sum := j.total(NumTiles(items))
		if i == 0 {
			ref = sum
		} else if sum != ref {
			t.Fatalf("GOMAXPROCS=%d: tiled reduction %v != %v", procs, sum, ref)
		}
	}
}

// TestBatchedMatMulMatchesUnbatched pins the flattened (batch, row)
// dispatch against per-head serial products.
func TestBatchedMatMulMatchesUnbatched(t *testing.T) {
	rng := NewRNG(12)
	const b, m, k, n = 6, 40, 32, 48 // large enough to fork
	x := Randn(rng, 1, b, m, k)
	y := Randn(rng, 1, b, k, n)
	got := BatchedMatMulInto(New(b, m, n), x, y)
	for h := 0; h < b; h++ {
		xh := FromSlice(x.Data()[h*m*k:(h+1)*m*k], m, k)
		yh := FromSlice(y.Data()[h*k*n:(h+1)*k*n], k, n)
		want := MatMulInto(New(m, n), xh, yh)
		gh := got.Data()[h*m*n : (h+1)*m*n]
		for i, v := range want.Data() {
			if gh[i] != v {
				t.Fatalf("head %d diverges at %d: %v != %v", h, i, gh[i], v)
			}
		}
	}
}

// TestParallelForZeroAllocs asserts the pooled dispatch steady state:
// after warmup, forking a persistent job through the worker pool
// performs zero heap allocations.
func TestParallelForZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only valid in normal builds")
	}
	j := &sumJob{data: make([]float32, 1<<14)}
	n := len(j.data)
	forkTiles(n, NumTiles(n), j) // warm the pool and WaitGroup cache
	allocs := testing.AllocsPerRun(100, func() {
		forkTiles(n, NumTiles(n), j)
	})
	if allocs != 0 {
		t.Errorf("steady-state forkTiles allocates %.1f objects per dispatch, want 0", allocs)
	}
}

// TestLargeMatMulZeroAllocs extends the zero-alloc gate to a dispatch
// that actually crosses the parallel threshold (the original alloc
// gates use tiny shapes that stay serial).
func TestLargeMatMulZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only valid in normal builds")
	}
	rng := NewRNG(13)
	const m, k, n = 96, 64, 96
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	dst := New(m, n)
	for i := 0; i < 3; i++ {
		MatMulInto(dst, a, b)
	}
	allocs := testing.AllocsPerRun(50, func() {
		MatMulInto(dst, a, b)
	})
	if allocs != 0 {
		t.Errorf("steady-state threaded matmul allocates %.1f objects, want 0", allocs)
	}
}
