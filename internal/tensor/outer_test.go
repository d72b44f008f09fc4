package tensor

import (
	"fmt"
	"math"
	"testing"
)

// outerShape draws a product shape that covers every tail of the
// tile's register block with probability bounded away from zero: m runs
// through three whole row blocks and a tail, n through two whole column
// panels and a tail, and m % rows, n % cols, n % 8, k % 2 (the 6×16 k
// loop's odd first step) and k (1, below 8, not a multiple of 8) all
// range over their residues.
func outerShape(rng *RNG, tile outerKernel) (k, m, n int) {
	return 1 + rng.Intn(41), 1 + rng.Intn(4*tile.rows-1), 1 + rng.Intn(2*tile.cols+21)
}

// outerSentinel fills every cell of a test destination the kernel must
// not write: the columns between n and the row stride, and a guard
// past the last row.
const outerSentinel = float32(-12345.5)

// outerModes are the four stores of the kernel.
var outerModes = []string{"overwrite", "accumulate", "bias", "scale"}

// outerCase is one random product in the kernel's terms: a left
// operand in either layout, b panels, and row strides of u and dst
// that exceed n by padU and padD.
type outerCase struct {
	what string
	task product
	b, m int
}

func newOuterCase(rng *RNG, transA bool, mode string, b, k, m, n, padU, padD int) outerCase {
	un, dn := n+padU, n+padD
	o := product{
		dst: make([]float32, b*m*dn+32),
		t:   Randn(rng, 1, b*m*k).data,
		u:   Randn(rng, 1, b*k*un).data,
		k:   k, n: n, tk: 1, tr: k, un: un, dn: dn, scale: 1,
	}
	if transA {
		o.tk, o.tr = m, 1
	}
	switch mode {
	case "accumulate":
		o.acc = true
	case "bias":
		o.bias = Randn(rng, 1, n).data
	case "scale":
		o.scale = 0.37
	}
	copy(o.dst, Randn(rng, 1, len(o.dst)).data)
	for i := range o.dst {
		if i >= b*m*dn || i%dn >= n {
			o.dst[i] = outerSentinel
		}
	}
	return outerCase{
		what: fmt.Sprintf("transA=%v %s b=%d k=%d m=%d n=%d un=%d dn=%d", transA, mode, b, k, m, n, un, dn),
		task: o, b: b, m: m,
	}
}

// runPanels runs o over b panels of m rows stored back to back: panel
// h is o moved on by h·m·dn in dst, h·m·k in t and h·k·un in u.
func runPanels(o product, b, m int) {
	panels := func(s []float32, size int) stack { return stack{s, 1, 0, 0, size} }
	o.batched(b, m, panels(o.dst, m*o.dn), panels(o.t, m*o.k), panels(o.u, o.k*o.un))
}

// run executes the case on a copy of its destination, through the
// vector kernel or the portable loop, and returns that copy.
func (c outerCase) run(vector bool) []float32 {
	defer func(v bool) { useFMA = v }(useFMA)
	useFMA = vector
	o := c.task
	o.dst = append([]float32(nil), o.dst...)
	runPanels(o, c.b, c.m)
	return o.dst
}

// reference evaluates the product's defining formula in float64.
func (c outerCase) reference() []float32 {
	o := c.task
	want := append([]float32(nil), o.dst...)
	for h := 0; h < c.b; h++ {
		t, u, d := o.t[h*c.m*o.k:], o.u[h*o.k*o.un:], want[h*c.m*o.dn:]
		for r := 0; r < c.m; r++ {
			for col := 0; col < o.n; col++ {
				var s float64
				for i := 0; i < o.k; i++ {
					s += float64(t[i*o.tk+r*o.tr]) * float64(u[i*o.un+col])
				}
				s *= float64(o.scale)
				if o.bias != nil {
					s += float64(o.bias[col])
				}
				if o.acc {
					s += float64(d[r*o.dn+col])
				}
				d[r*o.dn+col] = float32(s)
			}
		}
	}
	return want
}

// intact reports whether every sentinel of the case survived in got.
func (c outerCase) intact(got []float32) bool {
	for i, v := range c.task.dst {
		if v == outerSentinel && got[i] != outerSentinel {
			return false
		}
	}
	return true
}

// TestOuterKernelMatchesPortable is the property test of the kernel's
// contract: over random shapes, both left-operand layouts and all four
// stores, single and batched, with u and dst strides that differ (the
// quantized strip) or not, each tile the CPU has and the portable loop
// must all agree with the defining formula and write nothing outside
// the n valid columns of their rows. The portable loop, which no tile
// changes, runs beside the first tile only.
func TestOuterKernelMatchesPortable(t *testing.T) { eachTile(t, testOuterKernelMatchesPortable) }

func testOuterKernelMatchesPortable(t *testing.T, tile outerKernel, portable bool) {
	rng := NewRNG(1601)
	rowTails, colTails, kParities := map[int]bool{}, map[int]bool{}, map[int]bool{}
	for trial := 0; trial < 300; trial++ {
		k, m, n := outerShape(rng, tile)
		b := 1 + rng.Intn(3)
		padU, padD := rng.Intn(3)*rng.Intn(9), rng.Intn(3)*rng.Intn(9)
		rowTails[m%tile.rows], colTails[n%tile.cols], kParities[k%2] = true, true, true
		for _, transA := range []bool{false, true} {
			for _, mode := range outerModes {
				c := newOuterCase(rng, transA, mode, b, k, m, n, padU, padD)
				want := FromSlice(c.reference(), len(c.task.dst))
				for _, vector := range arms(portable) {
					got := c.run(vector)
					requireClose(t, FromSlice(got, len(got)), want, fmt.Sprintf("%s vector=%v", c.what, vector))
					if !c.intact(got) {
						t.Fatalf("%s vector=%v: kernel wrote outside its rows' valid columns", c.what, vector)
					}
				}
			}
		}
	}
	if len(rowTails) != tile.rows || len(colTails) != tile.cols || len(kParities) != 2 {
		t.Fatalf("shapes covered %d of %d row tails, %d of %d column tails and %d of 2 parities of k",
			len(rowTails), tile.rows, len(colTails), tile.cols, len(kParities))
	}
}

// TestOuterSplitInvariance pins the rule every differential gate above
// this package leans on: an output element's bits may not depend on
// which block or panel computed it. Rows [0,s) and [s,m)
// computed separately must equal the whole for EVERY split s, and so
// must columns [0,s) and [s,n) — the second half reading its slice of
// u from a compact strip of its own, as the quantized product does —
// on both the vector and the portable path, in both layouts, under
// every store, with each tile the CPU has (the portable loop beside the
// first only). A short block or a masked panel therefore has to run the
// same chain as a full one.
func TestOuterSplitInvariance(t *testing.T) { eachTile(t, testOuterSplitInvariance) }

// arms are the paths a per-tile test runs: the tile, and the portable
// loop too when portable is set.
func arms(portable bool) []bool {
	if portable {
		return []bool{false, useFMA}
	}
	return []bool{useFMA}
}

func testOuterSplitInvariance(t *testing.T, tile outerKernel, portable bool) {
	defer func(v bool) { useFMA = v }(useFMA)
	for _, vec := range arms(portable) {
		useFMA = vec
		rng := NewRNG(1602)
		for trial := 0; trial < 40; trial++ {
			k, m, n := outerShape(rng, tile)
			for _, transA := range []bool{false, true} {
				for _, mode := range outerModes {
					c := newOuterCase(rng, transA, mode, 1, k, m, n, rng.Intn(5), 0)
					whole := c.task
					whole.dst = append([]float32(nil), whole.dst...)
					whole.rows(0, m)
					same := func(split string, s int, got []float32) {
						t.Helper()
						for i, v := range whole.dst {
							if got[i] != v {
								t.Fatalf("vec=%v %s %s split %d: element %d is %v, whole product has %v", vec, c.what, split, s, i, got[i], v)
							}
						}
					}
					for s := 0; s <= m; s++ {
						parts := c.task
						parts.dst = append([]float32(nil), parts.dst...)
						parts.rows(s, m)
						parts.rows(0, s)
						same("row", s, parts.dst)
					}
					for s := 0; s <= n; s++ {
						left := c.task
						left.dst = append([]float32(nil), left.dst...)
						left.n = s
						left.rows(0, m)
						right := left
						right.n = n - s
						right.dst = left.dst[s:]
						if right.bias != nil {
							right.bias = right.bias[s:]
						}
						right.un = n - s
						right.u = make([]float32, k*right.un)
						for i := 0; i < k; i++ {
							copy(right.u[i*right.un:(i+1)*right.un], left.u[i*left.un+s:])
						}
						right.rows(0, m)
						same("column", s, left.dst)
					}
				}
			}
		}
	}
}

// TestOuterForkedMatchesSerial runs a batched product through its
// entry point and compares it bitwise with each panel run as a product
// of its own: the panel addressing must reach every panel of both
// layouts.
func TestOuterForkedMatchesSerial(t *testing.T) {
	rng := NewRNG(1603)
	const b, k, m, n = 5, 32, 38, 52
	for _, transA := range []bool{false, true} {
		for _, mode := range outerModes {
			c := newOuterCase(rng, transA, mode, b, k, m, n, 0, 0)
			want := c.run(useFMA)
			got := append([]float32(nil), c.task.dst...)
			for h := 0; h < b; h++ {
				o := c.task
				o.dst = got[h*m*n : (h+1)*m*n]
				o.t = o.t[h*m*k : (h+1)*m*k]
				o.u = o.u[h*k*n : (h+1)*k*n]
				o.rows(0, m)
			}
			for i, v := range want {
				if got[i] != v {
					t.Fatalf("%s: panel-by-panel product diverges at %d: %v != %v", c.what, i, got[i], v)
				}
			}
		}
	}
}

// TestOuterZeroAllocs pins the steady state of the products the
// training step and the served forward call, on each tile the CPU has.
func TestOuterZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only valid in normal builds")
	}
	eachTile(t, testOuterZeroAllocs)
}

func testOuterZeroAllocs(t *testing.T, _ outerKernel, _ bool) {
	rng := NewRNG(1604)
	x := Randn(rng, 1, 32, 64)
	w := Randn(rng, 1, 64, 192)
	bias := Randn(rng, 1, 192)
	y := New(32, 192)
	dy := Randn(rng, 1, 32, 192)
	dw := New(64, 192)
	dx := New(32, 64)
	q := Randn(rng, 1, 4, 32, 16)
	p := Randn(rng, 1, 4, 32, 32)
	do := Randn(rng, 1, 4, 32, 16)
	dv := New(4, 32, 16)
	calls := []struct {
		name string
		call func()
	}{
		{"MatMulInto", func() { MatMulInto(y, x, w) }},
		{"MatMulBiasInto", func() { MatMulBiasInto(y, x, w, bias) }},
		{"MatMulTransBInto", func() { MatMulTransBInto(dx, dy, w) }},
		{"MatMulTransAAccInto", func() { MatMulTransAAccInto(dw, x, dy) }},
		{"BatchedMatMulInto", func() { BatchedMatMulInto(dv, p, do) }},
		{"BatchedMatMulTransBScaledInto", func() { BatchedMatMulTransBScaledInto(p, q, q, 0.25) }},
		{"BatchedMatMulTransAInto", func() { BatchedMatMulTransAInto(dv, p, do) }},
	}
	for _, c := range calls {
		c.call() // warm the task and packing pools
		if allocs := testing.AllocsPerRun(50, c.call); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", c.name, allocs)
		}
	}
}

// TestMatMulZeroExtents drives every product entry point with one
// extent at zero. New rejects such shapes, so the tensors are built by
// hand; what is pinned is that the kernels stay safe if that rule is
// ever relaxed: an empty reduction writes zeros (plus bias, plus what
// dst held when accumulating) without entering the assembly loop —
// which counts down from k and would run 2⁶⁴ times from zero — and an
// empty output touches nothing.
func TestMatMulZeroExtents(t *testing.T) {
	rng := NewRNG(1605)
	filled := func(shape ...int) *Tensor {
		n := 1
		for _, d := range shape {
			n *= d
		}
		return &Tensor{shape: shape, data: Randn(rng, 1, n+1).data[:n]}
	}
	for _, s := range [][3]int{{0, 3, 5}, {4, 0, 5}, {4, 3, 0}, {4, 0, 21}} {
		m, k, n := s[0], s[1], s[2]
		what := fmt.Sprintf("m=%d k=%d n=%d", m, k, n)
		bias := filled(n)
		// want is the value of every output element when k = 0.
		check := func(name string, got *Tensor, want func(i int) float32) {
			t.Helper()
			if k != 0 {
				return
			}
			for i, v := range got.data {
				if v != want(i) {
					t.Fatalf("%s %s: element %d is %v, want %v", name, what, i, v, want(i))
				}
			}
		}
		zero := func(int) float32 { return 0 }
		check("MatMulInto", MatMulInto(filled(m, n), filled(m, k), filled(k, n)), zero)
		check("MatMulBiasInto", MatMulBiasInto(filled(m, n), filled(m, k), filled(k, n), bias), func(i int) float32 { return bias.data[i%n] })
		check("MatMulTransBInto", MatMulTransBInto(filled(m, n), filled(m, k), filled(n, k)), zero)
		check("MatMulTransAInto", MatMulTransAInto(filled(m, n), filled(k, m), filled(k, n)), zero)
		acc := filled(m, n)
		before := append([]float32(nil), acc.data...)
		check("MatMulTransAAccInto", MatMulTransAAccInto(acc, filled(k, m), filled(k, n)), func(i int) float32 { return before[i] })
		for _, b := range []int{0, 2} {
			check("BatchedMatMulInto", BatchedMatMulInto(filled(b, m, n), filled(b, m, k), filled(b, k, n)), zero)
			check("BatchedMatMulTransBScaledInto", BatchedMatMulTransBScaledInto(filled(b, m, n), filled(b, m, k), filled(b, n, k), 0.5), zero)
			check("BatchedMatMulTransAInto", BatchedMatMulTransAInto(filled(b, m, n), filled(b, k, m), filled(b, k, n)), zero)
		}
	}
	// A quantized weight has at least one row and one column; its
	// input may still have no rows.
	q := QuantizeTensor(Randn(rng, 1, 32, 40), QuantInt8)
	MatMulQuantInto(filled(0, 40), filled(0, 32), q, nil)
}

// TestWideTileMatchesNarrowBits is the differential of the two tiles:
// on an AVX-512 host every output element of the 8×32 tile must have
// the 6×16 tile's bits (math.Float32bits, so ±0 count), at every mask
// width (n from 1 to 70), k at 1, 2, 3 and either side of 16 and at 64,
// m drawn from 1 to 40, both left-operand layouts and all four stores;
// then through the batched entry points on token-major strided stacks,
// and through the quantized product, whose strips are as wide as the
// tile. A quarter of u's columns are zero, so with k ≤ 3 many chains
// are sums of -0 products: a tile that starts a chain with a multiply
// instead of an add into +0 stores -0 there.
func TestWideTileMatchesNarrowBits(t *testing.T) {
	if !useWide {
		t.Skip("this CPU has no AVX-512 tile")
	}
	rng := NewRNG(1606)
	same := func(what string, run func() []float32) {
		t.Helper()
		var narrow, wide []float32
		withTile(tile6x16, func() { narrow = run() })
		withTile(tile8x32, func() { wide = run() })
		for i, v := range narrow {
			if math.Float32bits(wide[i]) != math.Float32bits(v) {
				t.Fatalf("%s: element %d is %v (%#x) on the 8×32 tile, %v (%#x) on the 6×16 one",
					what, i, wide[i], math.Float32bits(wide[i]), v, math.Float32bits(v))
			}
		}
	}
	zeroColumns := func(u []float32, k, n, un int) {
		for c := 0; c < n; c++ {
			if rng.Intn(4) == 0 {
				for i := 0; i < k; i++ {
					u[i*un+c] = 0
				}
			}
		}
	}
	ks := []int{1, 2, 3, 15, 16, 17, 64}
	for n := 1; n <= 70; n++ {
		for _, k := range ks {
			m := 1 + rng.Intn(40)
			for _, transA := range []bool{false, true} {
				for _, mode := range outerModes {
					c := newOuterCase(rng, transA, mode, 1, k, m, n, rng.Intn(3), rng.Intn(3))
					zeroColumns(c.task.u, k, n, c.task.un)
					same(c.what, func() []float32 { return c.run(true) })
				}
			}
		}
	}
	for n := 1; n <= 70; n++ {
		k, m := ks[rng.Intn(len(ks))], 1+rng.Intn(40)
		s, h := 1+rng.Intn(2), 1+rng.Intn(3)
		b := s * h
		what := fmt.Sprintf("%d samples × %d heads, m=%d k=%d n=%d", s, h, m, k, n)
		u := Randn(rng, 1, s*k, h*n)
		zeroColumns(u.data, s*k, h*n, h*n)
		t3, t3T, tm, um := Randn(rng, 1, b, m, k), Randn(rng, 1, b, k, m), Randn(rng, 1, s*m, h*k), Randn(rng, 1, s*n, h*k)
		same("BatchedMatMulInto "+what, func() []float32 { return BatchedMatMulInto(New(s*m, h*n), t3, u).data })
		same("BatchedMatMulTransAInto "+what, func() []float32 { return BatchedMatMulTransAInto(New(s*m, h*n), t3T, u).data })
		same("BatchedMatMulTransBScaledInto "+what, func() []float32 {
			return BatchedMatMulTransBScaledInto(New(b, m, n), tm, um, 0.25).data
		})
	}
	for n := 1; n <= 70; n++ {
		k, m := ks[rng.Intn(len(ks))], 1+rng.Intn(40)
		x, bias := Randn(rng, 1, m, k), Randn(rng, 1, n)
		for _, kind := range []QuantKind{QuantInt8, QuantQ4} {
			q := QuantizeTensor(Randn(rng, 1, k, n), kind)
			what := fmt.Sprintf("MatMulQuantInto %s m=%d k=%d n=%d", kind, m, k, n)
			same(what, func() []float32 { return MatMulQuantInto(New(m, n), x, q, nil).data })
			same(what+" biased", func() []float32 { return MatMulQuantInto(New(m, n), x, q, bias).data })
		}
	}
}
