package tensor

import (
	"fmt"
	"testing"
)

// outerShape draws a k-major product shape that covers every tail of
// the 4×16 register block with probability bounded away from zero:
// m % 4, n % 16, n % 8 and k (1, below 8, not a multiple of 8) all
// range over their residues.
func outerShape(rng *RNG) (k, m, n int) {
	return 1 + rng.Intn(41), 1 + rng.Intn(23), 1 + rng.Intn(53)
}

// guarded returns a tensor whose backing array continues past its
// data with sentinel values, and a check that they are intact — a
// masked store that spills past the last column lands there.
func guarded(rng *RNG, shape ...int) (*Tensor, func() bool) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	const pad, sentinel = 32, float32(-12345.5)
	buf := make([]float32, n+pad)
	copy(buf, Randn(rng, 1, shape...).Data())
	for i := n; i < len(buf); i++ {
		buf[i] = sentinel
	}
	intact := func() bool {
		for _, v := range buf[n:] {
			if v != sentinel {
				return false
			}
		}
		return true
	}
	return FromSlice(buf[:n:n], shape...), intact
}

// TestOuterKernelMatchesPortable is the property test of the assembly
// kernel: over random shapes it must agree with the portable loop —
// overwrite and accumulate, single and batched — and write nothing
// outside dst.
func TestOuterKernelMatchesPortable(t *testing.T) {
	if !useFMA {
		t.Skip("no vector kernel on this machine; the portable loop is the only path")
	}
	rng := NewRNG(1601)
	for trial := 0; trial < 300; trial++ {
		k, m, n := outerShape(rng)
		b := 1 + rng.Intn(3)
		what := fmt.Sprintf("b=%d k=%d m=%d n=%d", b, k, m, n)
		a := Randn(rng, 1, b, k, m)
		u := Randn(rng, 1, b, k, n)
		for _, acc := range []bool{false, true} {
			if b > 1 && acc {
				continue // no batched accumulate entry point
			}
			got, intact := guarded(rng, b, m, n)
			want := got.Clone()
			for h := 0; h < b; h++ {
				outerRowsPortable(want.data[h*m*n:(h+1)*m*n], a.data[h*k*m:(h+1)*k*m], u.data[h*k*n:(h+1)*k*n], k, m, n, 0, m, acc)
			}
			switch {
			case b > 1:
				BatchedMatMulTransAInto(got, a, u)
			case acc:
				MatMulTransAAccInto(got.Reshape(m, n), a.Reshape(k, m), u.Reshape(k, n))
			default:
				MatMulTransAInto(got.Reshape(m, n), a.Reshape(k, m), u.Reshape(k, n))
			}
			requireClose(t, got, want, fmt.Sprintf("%s acc=%v", what, acc))
			if !intact() {
				t.Fatalf("%s acc=%v: kernel wrote past the end of dst", what, acc)
			}
		}
	}
}

// TestOuterSplitInvariance pins the rule every differential gate above
// this package leans on: an output element's bits may not depend on
// which tile, block or panel computed it. Rows [0,s) and [s,m)
// computed separately must equal the whole for EVERY split s, on both
// the vector and the portable path — so a short block or a masked
// panel has to run the same chain as a full one.
func TestOuterSplitInvariance(t *testing.T) {
	defer func(v bool) { useFMA = v }(useFMA)
	for _, vec := range []bool{false, useFMA} {
		useFMA = vec
		rng := NewRNG(1602)
		for trial := 0; trial < 60; trial++ {
			k, m, n := outerShape(rng)
			a := Randn(rng, 1, k, m)
			u := Randn(rng, 1, k, n)
			init := Randn(rng, 1, m, n)
			for _, acc := range []bool{false, true} {
				whole := init.Clone()
				outerRows(whole.data, a.data, u.data, k, m, n, 0, m, acc)
				for s := 0; s <= m; s++ {
					parts := init.Clone()
					outerRows(parts.data, a.data, u.data, k, m, n, s, m, acc)
					outerRows(parts.data, a.data, u.data, k, m, n, 0, s, acc)
					for i, v := range whole.data {
						if parts.data[i] != v {
							t.Fatalf("vec=%v k=%d m=%d n=%d acc=%v split %d: element %d is %v, whole product has %v",
								vec, k, m, n, acc, s, i, parts.data[i], v)
						}
					}
				}
			}
		}
	}
}

// TestOuterForkedMatchesSerial runs shapes past the parallel threshold
// through the worker pool and compares them bitwise with one serial
// pass: the (panel, row-block) flattening must address every panel.
func TestOuterForkedMatchesSerial(t *testing.T) {
	rng := NewRNG(1603)
	const b, k, m, n = 5, 32, 38, 52
	a := Randn(rng, 1, b, k, m)
	u := Randn(rng, 1, b, k, n)
	want := New(b, m, n)
	for h := 0; h < b; h++ {
		outerRows(want.data[h*m*n:(h+1)*m*n], a.data[h*k*m:(h+1)*k*m], u.data[h*k*n:(h+1)*k*n], k, m, n, 0, m, false)
	}
	got := New(b, m, n)
	task := &outerTask{dst: got.data, t: a.data, u: u.data, k: k, m: m, n: n}
	items := b * task.blocks()
	forkTiles(items, NumTiles(items), task)
	for i, v := range want.data {
		if got.data[i] != v {
			t.Fatalf("forked product diverges at %d: %v != %v", i, got.data[i], v)
		}
	}
}

// TestOuterZeroAllocs pins the steady state of the two backward entry
// points the training step calls.
func TestOuterZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only valid in normal builds")
	}
	rng := NewRNG(1604)
	x := Randn(rng, 1, 32, 64)
	dy := Randn(rng, 1, 32, 192)
	dw := New(64, 192)
	p := Randn(rng, 1, 4, 32, 32)
	do := Randn(rng, 1, 4, 32, 16)
	dv := New(4, 32, 16)
	MatMulTransAAccInto(dw, x, dy) // warm the task pool
	BatchedMatMulTransAInto(dv, p, do)
	if allocs := testing.AllocsPerRun(50, func() { MatMulTransAAccInto(dw, x, dy) }); allocs != 0 {
		t.Errorf("MatMulTransAAccInto allocates %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { BatchedMatMulTransAInto(dv, p, do) }); allocs != 0 {
		t.Errorf("BatchedMatMulTransAInto allocates %.1f objects per call, want 0", allocs)
	}
}
