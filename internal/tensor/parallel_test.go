package tensor

import (
	"runtime"
	"strings"
	"testing"
)

// markJob counts how many times each item is executed.
type markJob struct{ hits []int32 }

func (j *markJob) Tile(_, i0, i1 int) {
	for i := i0; i < i1; i++ {
		j.hits[i]++
	}
}

// TestParallelForCoversEachItemOnce checks that every item runs
// exactly once.
func TestParallelForCoversEachItemOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 32, 33, 1000} {
		j := &markJob{hits: make([]int32, n)}
		ParallelFor(n, 0, j)
		for i, h := range j.hits {
			if h != 1 {
				t.Fatalf("n=%d: item %d executed %d times", n, i, h)
			}
		}
	}
}

// callerJob records its Tile calls and the goroutine of the first.
type callerJob struct {
	calls, tile, i0, i1 int
	goroutine           string
}

func (j *callerJob) Tile(tile, i0, i1 int) {
	j.calls++
	j.tile, j.i0, j.i1 = tile, i0, i1
	if j.goroutine == "" {
		j.goroutine = goroutineName()
	}
}

// goroutineName returns "goroutine N" for the calling goroutine.
func goroutineName() string {
	buf := make([]byte, 64)
	name, _, _ := strings.Cut(string(buf[:runtime.Stack(buf, false)]), " [")
	return name
}

// TestParallelForRunsOnCaller pins the one code path: with four Ps and
// arguments far above any fork threshold, ParallelFor makes exactly one
// Tile call, over the whole range, on the calling goroutine, and
// allocates nothing. AllocsPerRun would pin one P, so the allocations
// are counted by hand.
func TestParallelForRunsOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, flops, runs = 1 << 14, 1 << 30, 100
	j := &callerJob{}
	ParallelFor(n, flops, j)
	if j.calls != 1 || j.tile != 0 || j.i0 != 0 || j.i1 != n {
		t.Fatalf("%d Tile calls, last (%d, %d, %d); want one, (0, 0, %d)", j.calls, j.tile, j.i0, j.i1, n)
	}
	if self := goroutineName(); j.goroutine != self {
		t.Fatalf("Tile ran on %s, the caller is %s", j.goroutine, self)
	}
	if raceEnabled {
		return // race-detector instrumentation allocates
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ParallelFor(n, flops, j)
	}
	runtime.ReadMemStats(&after)
	if j.calls != 1+runs {
		t.Errorf("%d dispatches made %d Tile calls, want %d", runs, j.calls-1, runs)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("%d dispatches allocated %d objects, want 0", runs, allocs)
	}
}

// TestBatchedMatMulMatchesUnbatched pins the batched product against
// per-head products.
func TestBatchedMatMulMatchesUnbatched(t *testing.T) {
	rng := NewRNG(12)
	const b, m, k, n = 6, 40, 32, 48
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

// TestLargeMatMulZeroAllocs extends the zero-alloc gate to a product
// larger than the training step's.
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
		t.Errorf("steady-state matmul allocates %.1f objects, want 0", allocs)
	}
}
