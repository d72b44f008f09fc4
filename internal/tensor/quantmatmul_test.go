package tensor

import (
	"runtime"
	"testing"
)

// TestMatMulQuantMatchesF32 pins the fused kernel's core contract:
// MatMulQuantInto is bit-identical to MatMulBiasInto over
// DequantizeTensor(q) — same micro-kernel, same chain, whatever strip
// or panel an element falls in — across shapes that hit the partial
// column group, the masked panel and short row blocks, with and
// without bias, for both formats, at every worker count.
func TestMatMulQuantMatchesF32(t *testing.T) {
	var seed uint64 = 1100
	shapes := []struct{ m, k, n int }{
		{1, 32, 32},   // single row
		{8, 32, 32},   // block-sized
		{5, 33, 7},    // odd everything: partial blocks, one masked group, odd rows
		{16, 128, 96}, // over the parallel threshold with larger k
		{3, 8, 4},     // minimal k of one vector
		{2, 7, 5},     // k below one vector
		{9, 40, 53},   // three full groups and a 5-column tail
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, kind := range []QuantKind{QuantInt8, QuantQ4} {
			for _, sh := range shapes {
				seed++
				x := randMat(seed, sh.m, sh.k)
				w := randMat(seed+500, sh.k, sh.n)
				bias := randMat(seed+900, 1, sh.n)
				q := QuantizeTensor(w, kind)
				deq := DequantizeTensor(q)
				for _, b := range []*Tensor{nil, bias} {
					got := New(sh.m, sh.n)
					want := New(sh.m, sh.n)
					MatMulQuantInto(got, x, q, b)
					MatMulBiasInto(want, x, deq, b)
					for i := range got.Data() {
						if got.Data()[i] != want.Data()[i] {
							t.Fatalf("GOMAXPROCS=%d %s m=%d k=%d n=%d bias=%v: element %d quant=%g f32=%g (must be bit-identical)",
								procs, kind, sh.m, sh.k, sh.n, b != nil, i, got.Data()[i], want.Data()[i])
						}
					}
				}
			}
		}
	}
}

// TestMatMulQuantAllocs asserts the 0 allocs/op steady state on both
// the serial path and (via forkTiles-sized work) the pooled parallel
// path. AllocsPerRun pins GOMAXPROCS to 1, so the large shape below
// exercises the pooled scratch and task reuse serially — the parallel
// handoff itself is already pinned allocation-free by
// TestParallelForAllocs.
func TestMatMulQuantAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only valid in normal builds")
	}
	var seed uint64 = 1300
	for _, sh := range []struct{ m, k, n int }{{4, 32, 32}, {32, 128, 128}} {
		seed++
		x := randMat(seed, sh.m, sh.k)
		q := QuantizeTensor(randMat(seed+500, sh.k, sh.n), QuantInt8)
		bias := randMat(seed+900, 1, sh.n)
		dst := New(sh.m, sh.n)
		MatMulQuantInto(dst, x, q, bias) // warm the pools
		if allocs := testing.AllocsPerRun(20, func() {
			MatMulQuantInto(dst, x, q, bias)
		}); allocs != 0 {
			t.Errorf("m=%d k=%d n=%d: %v allocs/op in steady state, want 0", sh.m, sh.k, sh.n, allocs)
		}
	}
}

// TestMatMulQuantPanics pins the shape guards.
func TestMatMulQuantPanics(t *testing.T) {
	x := randMat(1401, 4, 32)
	q := QuantizeTensor(randMat(1402, 32, 8), QuantInt8)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("non-2D input", func() { MatMulQuantInto(New(4, 8), New(4, 8, 1), q, nil) })
	expectPanic("inner mismatch", func() { MatMulQuantInto(New(4, 8), randMat(1403, 4, 16), q, nil) })
	expectPanic("bad dst", func() { MatMulQuantInto(New(4, 9), x, q, nil) })
	expectPanic("bad bias", func() { MatMulQuantInto(New(4, 8), x, q, New(1, 3)) })
	expectPanic("QuantizeTensor rank", func() { QuantizeTensor(New(2, 2, 2), QuantInt8) })
}
