package tensor

import (
	"fmt"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"orbit/internal/quant"
)

// The assembly kernels take raw pointers, so a kernel that reads or
// writes a few elements past an operand normally lands inside the same
// Go allocation and nothing notices. Here every operand lies flush
// against an unmapped page — its end against the page after it, then
// its start against the page before it — and every tail of every
// kernel runs: one element too far is a fault.

// guarded is a span of memory between two PROT_NONE pages.
type guarded struct{ data []byte }

func newGuarded(t *testing.T, bytes int) *guarded {
	t.Helper()
	page := syscall.Getpagesize()
	span := (bytes + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, span+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, fence := range [][]byte{mem[:page], mem[page+span:]} {
		if err := syscall.Mprotect(fence, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	return &guarded{mem[page : page+span]}
}

// guardedSlice returns n elements of g ending at the fence after it
// (atEnd) or starting at the fence before it, filled with small values.
func guardedSlice(g *guarded, n int, atEnd bool) []float32 {
	if n == 0 {
		return []float32{}
	}
	off := 0
	if atEnd {
		off = len(g.data) - 4*n
	}
	s := unsafe.Slice((*float32)(unsafe.Pointer(&g.data[off])), n)
	for i := range s {
		s[i] = float32(i%7) - 3
	}
	return s
}

// guardedBytes is guardedSlice for bytes: n of them, every value.
func guardedBytes(g *guarded, n int, atEnd bool) []byte {
	off := 0
	if atEnd {
		off = len(g.data) - n
	}
	s := g.data[off : off+n : off+n]
	for i := range s {
		s[i] = byte(i * 37)
	}
	return s
}

// underFences runs sweep with each placement; a fault inside it fails
// the test with the case that was running.
func underFences(t *testing.T, sweep func(atEnd bool, running *string)) {
	t.Helper()
	if !useFMA {
		t.Skip("vector kernels unavailable on this CPU")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, atEnd := range []bool{true, false} {
		var running string
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s (operands at the %s fence): %v", running, map[bool]string{true: "upper", false: "lower"}[atEnd], r)
				}
			}()
			sweep(atEnd, &running)
		}()
	}
}

// TestOuterTileStaysInsideOperands sweeps, on each tile the CPU has,
// every m%rows row tail — alone and after a whole block; for the 6×16
// tile the four-row loop's one to four rows and the six-row loop's
// five — and every n%cols column tail through product.rows, at an odd
// and an even k (the 6×16 k loop's odd first step, with and without
// pairs after it), both left operand layouts, with and without bias
// and accumulation.
func TestOuterTileStaysInsideOperands(t *testing.T) { eachTile(t, testOuterTileStaysInsideOperands) }

func testOuterTileStaysInsideOperands(t *testing.T, tile outerKernel, _ bool) {
	const maxK = 5
	maxM, maxN := 2*tile.rows, 2*tile.cols+1
	gd, gt, gu, gb := newGuarded(t, 4*maxM*maxN), newGuarded(t, 4*maxM*maxK), newGuarded(t, 4*maxK*maxN), newGuarded(t, 4*maxN)
	underFences(t, func(atEnd bool, running *string) {
		for m := 1; m <= maxM; m++ {
			for n := 1; n <= maxN; n++ {
				for _, k := range []int{1, 4, maxK} {
					for variant := 0; variant < 8; variant++ {
						transA, withBias, acc := variant&1 != 0, variant&2 != 0, variant&4 != 0
						*running = fmt.Sprintf("outerTile%v m=%d k=%d n=%d transA=%v bias=%v acc=%v", tile, m, k, n, transA, withBias, acc)
						p := product{
							dst: guardedSlice(gd, m*n, atEnd), t: guardedSlice(gt, m*k, atEnd),
							u: guardedSlice(gu, k*n, atEnd), k: k, n: n, tk: 1, tr: k, un: n, dn: n, scale: 0.5, acc: acc,
						}
						if transA {
							p.tk, p.tr = m, 1
						}
						if withBias {
							p.bias = guardedSlice(gb, n, atEnd)
						}
						p.rows(0, m)
					}
				}
			}
		}
	})
}

// TestRowKernelsStayInsideOperands sweeps every length tail of the
// AdamW, two-rank reduce (store and add) and sum-of-squares kernels, and the LayerNorm kernels over 1…9
// rows (none, one and two four-row groups) of widths 4…24 in steps of
// four: the forward and dx kernels, with and without the rstd cache and
// with x̂ in out, at the widths of whole vectors, and the dγ/dβ kernel's
// runs also at widths 12 and 20, where its row stride is not a whole
// number of vectors.
func TestRowKernelsStayInsideOperands(t *testing.T) {
	const maxN, maxRows, maxDim = 21, 9, 24
	var g [6]*guarded
	for i := range g {
		g[i] = newGuarded(t, 4*maxRows*maxDim)
	}
	underFences(t, func(atEnd bool, running *string) {
		f32 := func(i, n int) []float32 { return guardedSlice(g[i], n, atEnd) }
		coef := &AdamWCoef{B1: 0.9, C1: 0.1, B2: 0.999, C2: 0.001, IBC1: 10, IBC2: 1000, Eps: 1e-8, WD: 0.01, LR: 1e-3}
		for n := 0; n <= maxN; n++ {
			*running = fmt.Sprintf("adamwVec n=%d", n)
			AdamWVec(f32(0, n), f32(1, n), f32(2, n), f32(3, n), coef)
			for _, acc := range []bool{false, true} {
				*running = fmt.Sprintf("sum2Vec n=%d acc=%v", n, acc)
				Sum2ScaledVec(f32(0, n), f32(1, n), f32(2, n), 0.5, acc)
				a := f32(1, n)
				Sum2ScaledVec(a, a, f32(2, n), 0.5, acc)
			}
			*running = fmt.Sprintf("sumSquaresVec n=%d", n)
			SumSquares(f32(0, n))
		}
		for dim := 4; dim <= maxDim; dim += 4 {
			for rows := 1; rows <= maxRows; rows++ {
				n := rows * dim
				*running = fmt.Sprintf("lnFwdVec [%d,%d]", rows, dim)
				LayerNormRowsVec(f32(0, n), f32(1, n), f32(5, rows), f32(2, n), f32(3, dim), f32(4, dim), 1e-5, 0, rows)
				out := f32(0, n)
				LayerNormRowsVec(out, out, nil, f32(2, n), f32(3, dim), f32(4, dim), 1e-5, 0, rows)
				*running = fmt.Sprintf("lnDxVec [%d,%d]", rows, dim)
				LayerNormDxVec(f32(0, n), f32(1, n), f32(2, n), f32(3, dim), f32(5, rows), 0, rows)
				for chunk := 1; chunk <= 4; chunk++ {
					*running = fmt.Sprintf("lnParamGradVec [%d,%d] chunk=%d", rows, dim, chunk)
					LayerNormParamGradVec(f32(3, dim), f32(4, dim), f32(0, n), f32(1, n), rows, chunk)
				}
			}
		}
	})
}

// TestElemKernelsStayInsideOperands sweeps every length tail of the
// GELU and streaming kernels (GELU's two-vector passes with and
// without the one-vector pass after them), every row-group tail and
// width of the softmax kernels, every column tail of the bias-gradient
// sum, every rows%8 × cols%8 edge of the transpose, dense and from a strided
// source, the aggregation's dots and mix over one to three channels
// and widths with and without a tail, and the quantized strip writer
// over row tails, partial scale blocks and partial column groups, its
// last panel's bytes and scales against the fence.
func TestElemKernelsStayInsideOperands(t *testing.T) {
	const maxN, maxRows, maxCols, maxK, maxC = 33, 9, 41, 40, 3
	var g [4]*guarded
	for i := range g {
		g[i] = newGuarded(t, 4*max(maxRows*(maxCols+3), maxC*8*maxK))
	}
	gs := newGuarded(t, 4*maxK*tile8x32.cols)
	underFences(t, func(atEnd bool, running *string) {
		f32 := func(i, n int) []float32 { return guardedSlice(g[i], n, atEnd) }
		for n := 0; n <= maxN; n++ {
			*running = fmt.Sprintf("geluVec n=%d", n)
			geluSlice(f32(0, n), f32(1, n), f32(2, n))
			x := f32(2, n)
			geluSlice(x, x, x)
			*running = fmt.Sprintf("geluBwdVec n=%d", n)
			dy := f32(3, n)
			geluBwdSlice(dy, f32(0, n), f32(1, n), dy)
			*running = fmt.Sprintf("addVec n=%d", n)
			addSlices(f32(0, n), f32(1, n), f32(2, n))
			d := f32(0, n)
			addSlices(d, d, f32(1, n))
			*running = fmt.Sprintf("scaleVec n=%d", n)
			scaleSlice(f32(0, n), 0.5)
			*running = fmt.Sprintf("maxAbsVec n=%d", n)
			maxAbsSlice(f32(0, n))
		}
		for _, kind := range []QuantKind{QuantInt8, QuantQ4} {
			for _, k := range []int{8, 33, maxK} {
				for _, n := range []int{8, 13, 16, 24, 32, 45} {
					pb, nb := quant.PanelBytes(kind, k), quant.BlocksPerPanel(k)
					q, err := quant.FromParts(kind, k, n, guardedBytes(g[0], n*pb, atEnd), f32(1, n*nb))
					if err != nil {
						t.Fatal(err)
					}
					for _, tile := range hostTiles {
						*running = fmt.Sprintf("dequantVec %s k=%d n=%d in %d-column strips", kind, k, n, tile.cols)
						for c := 0; c < n; c += tile.cols {
							w := min(tile.cols, n-c)
							dequantStrip(guardedSlice(gs, k*w, atEnd), q, c, w)
						}
					}
				}
			}
		}
		for c := 1; c <= maxC; c++ {
			for _, d := range []int{8, 13, 16, maxK} {
				*running = fmt.Sprintf("aggDotVec C=%d D=%d", c, d)
				AggregateDotsVec(f32(0, 8*c), f32(1, c*8*d), f32(2, d), 8*d, d)
				*running = fmt.Sprintf("aggMixVec C=%d D=%d", c, d)
				AggregateMixVec(f32(0, d), f32(1, (c-1)*8*d+d), f32(2, c), 8*d)
			}
		}
		for rows := 1; rows <= maxRows; rows++ {
			for cols := 1; cols <= maxCols; cols++ {
				n := rows * cols
				if cols%8 == 0 {
					*running = fmt.Sprintf("softmaxVec [%d,%d]", rows, cols)
					softmaxRows(f32(0, n), f32(1, n), cols, 0, rows)
					x := f32(1, n)
					softmaxRows(x, x, cols, 0, rows)
					*running = fmt.Sprintf("softmaxBwdVec [%d,%d]", rows, cols)
					dy := f32(2, n)
					softmaxBwdRows(dy, f32(1, n), dy, cols, 0, rows)
				}
				*running = fmt.Sprintf("sumRowsVec [%d,%d]", rows, cols)
				sumRowsCols(f32(0, cols), f32(1, n), rows, cols)
				*running = fmt.Sprintf("transposeVec [%d,%d]", rows, cols)
				transposeBlocks(f32(0, n), f32(1, n), rows, cols, cols)
				*running = fmt.Sprintf("transposeVec [%d,%d] row stride %d", rows, cols, cols+3)
				transposeBlocks(f32(0, n), f32(1, (rows-1)*(cols+3)+cols), rows, cols, cols+3)
			}
		}
	})
}
