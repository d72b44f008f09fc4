package tensor

import (
	"math"
	"testing"

	"orbit/internal/quant"
)

// TestMatMulQuantMatchesF32 pins the fused kernel's core contract:
// MatMulQuantInto is bit-identical to MatMulBiasInto over
// DequantizeTensor(q) — same micro-kernel, same chain, whatever strip
// or panel an element falls in — across shapes that hit the partial
// column group, the masked panel and short row blocks, with and
// without bias, for both formats.
func TestMatMulQuantMatchesF32(t *testing.T) {
	var seed uint64 = 1100
	shapes := []struct{ m, k, n int }{
		{1, 32, 32},   // single row
		{8, 32, 32},   // block-sized
		{5, 33, 7},    // odd everything: partial blocks, one masked group, odd rows
		{16, 128, 96}, // larger k
		{3, 8, 4},     // minimal k of one vector
		{2, 7, 5},     // k below one vector
		{9, 40, 53},   // three full groups and a 5-column tail
	}
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
						t.Fatalf("%s m=%d k=%d n=%d bias=%v: element %d quant=%g f32=%g (must be bit-identical)",
							kind, sh.m, sh.k, sh.n, b != nil, i, got.Data()[i], want.Data()[i])
					}
				}
			}
		}
	}
}

// stripScales cycles through the block scales the strip writer must
// carry bit for bit: zero, the smallest and largest denormals,
// ±MaxFloat32/127 (where an int8 code of ±128 overflows) and ordinary
// values of either sign.
var stripScales = []float32{0, math.Float32frombits(1), math.Float32frombits(0x007fffff),
	math.MaxFloat32 / 127, -math.MaxFloat32 / 127, 0.0123, -3.5e-4, 1}

// TestDequantStripMatchesPanels compares every column group of the
// strip writer with q.DequantPanelsInto under Float32bits, CPU gate off
// and on, for both formats: the bytes are every value in every lane
// (at k = 256, n = 133 each byte value meets each byte%8 and panel%8,
// which the test checks), k covers whole and partial scale blocks, and
// n, cut into the column groups of each tile the CPU has, ends in a
// partial group with and without a whole eight-panel part.
func TestDequantStripMatchesPanels(t *testing.T) {
	if !useFMA {
		t.Skip("vector kernels unavailable on this CPU")
	}
	defer func() { useFMA = true }()
	for _, kind := range []QuantKind{QuantInt8, QuantQ4} {
		for _, k := range []int{32, 40, 64, 96, 256} {
			for _, n := range []int{76, 133} {
				pb, nb := quant.PanelBytes(kind, k), quant.BlocksPerPanel(k)
				data, scales := make([]byte, n*pb), make([]float32, n*nb)
				for i := range data {
					c, j := i/pb, i%pb
					data[i] = byte(j/8 + pb/8*(c/8) + j%8 + 3*(c%8))
				}
				for i := range scales {
					scales[i] = stripScales[(i*5+i/nb)%len(stripScales)]
				}
				q, err := quant.FromParts(kind, k, n, data, scales)
				if err != nil {
					t.Fatal(err)
				}
				var seen [256][8][8]bool
				for _, tile := range hostTiles {
					for c := 0; c < n; c += tile.cols {
						w := min(tile.cols, n-c)
						want := make([]float32, k*w)
						q.DequantPanelsInto(want, c, c+w)
						for _, vector := range []bool{false, true} {
							useFMA = vector
							got := sentinelStrip(k * w)
							dequantStrip(got, q, c, w)
							for i := range want {
								if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
									t.Fatalf("%s k=%d n=%d panels [%d, %d) vector=%v: row %d panel %d is %v (%#x), DequantPanelsInto %v (%#x)",
										kind, k, n, c, c+w, vector, i/w, c+i%w, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
								}
							}
						}
						for p := c; p < c+w&^7; p++ {
							for i := 0; i < pb; i++ {
								seen[data[p*pb+i]][i%8][p%8] = true
							}
						}
					}
				}
				if k == 256 && n == 133 {
					for v := range seen {
						for r := range seen[v] {
							for p, ok := range seen[v][r] {
								if !ok {
									t.Fatalf("%s k=%d n=%d: byte %#x never at byte%%8 = %d, panel%%8 = %d", kind, k, n, v, r, p)
								}
							}
						}
					}
				}
			}
		}
	}
}

func sentinelStrip(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(math.NaN())
	}
	return s
}

// TestMatMulQuantAllocs asserts the 0 allocs/op steady state of a
// small and a larger product: the strip comes from the pooled scratch.
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
