package tensor

import "sync"

// This file holds the one operand rearrangement the matrix kernel
// needs: t @ uᵀ has its right operand's reduction axis innermost, so u
// is transposed into a pooled buffer — or, when u is a layer weight,
// into a buffer the layer keeps (TransposeInto) — and the product runs
// as t @ u.

// packPool recycles the buffers operands are transposed or dequantized
// into. The pool stores *[]float32 rather than []float32: putting a
// bare slice would box its header into an interface and allocate on
// every Put, defeating the zero-allocation steady state.
var packPool = sync.Pool{New: func() any { return new([]float32) }}

func getPack(n int) *[]float32 {
	p := packPool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return p
}

func putPack(p *[]float32) { packPool.Put(p) }

// packTranspose writes srcᵀ into dst: src is [rows, cols] with row
// stride ld (cols when dense, H·cols for one head's column block of a
// token-major matrix), dst becomes dense [cols, rows]. transposeBlocks
// takes the leading corner of whole 8×8 blocks; the loop — the
// definition — does the right and bottom edges, which is everything
// with the CPU gate off.
func packTranspose(dst, src []float32, rows, cols, ld int) {
	r8, c8 := transposeBlocks(dst, src, rows, cols, ld)
	transposeRange(dst, src, rows, cols, ld, 0, r8, c8, cols)
	transposeRange(dst, src, rows, cols, ld, r8, rows, 0, cols)
}

// transposeRange writes dst[c·rows+r] = src[r·ld+c] over rows
// [r0, r1) and columns [c0, c1), in 32×32 blocks so that a matrix
// beyond L1 stays cache friendly.
func transposeRange(dst, src []float32, rows, cols, ld, r0, r1, c0, c1 int) {
	const bs = 32
	for rb := r0; rb < r1; rb += bs {
		re := min(rb+bs, r1)
		for cb := c0; cb < c1; cb += bs {
			ce := min(cb+bs, c1)
			for r := rb; r < re; r++ {
				row := src[r*ld : r*ld+cols]
				for c := cb; c < ce; c++ {
					dst[c*rows+r] = row[c]
				}
			}
		}
	}
}
