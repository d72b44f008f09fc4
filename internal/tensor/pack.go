package tensor

import "sync"

// This file holds the one operand rearrangement the matrix kernel
// needs: t @ uᵀ has its right operand's reduction axis innermost, so u
// is transposed into a pooled buffer — or, when u is a layer weight,
// into a buffer the layer keeps (TransposeInto) — and the product runs
// as t @ u.

// packBatch is the Job that transposes every batch entry's operand
// panel ahead of a batched product: item h packs src entry h
// ([rows, cols]) into dst entry h.
type packBatch struct {
	dst, src   []float32
	rows, cols int
}

// Tile implements Job over batch entries.
func (p *packBatch) Tile(_, h0, h1 int) {
	size := p.rows * p.cols
	for h := h0; h < h1; h++ {
		packTranspose(p.dst[h*size:(h+1)*size], p.src[h*size:(h+1)*size], p.rows, p.cols)
	}
}

var packBatchPool = sync.Pool{New: func() any { return new(packBatch) }}

// packBatched transposes all `batch` panels of src ([rows, cols]
// each) into dst, in parallel across entries when large enough.
func packBatched(dst, src []float32, batch, rows, cols int) {
	p := packBatchPool.Get().(*packBatch)
	*p = packBatch{dst: dst, src: src, rows: rows, cols: cols}
	ParallelFor(batch, batch*rows*cols, p)
	*p = packBatch{}
	packBatchPool.Put(p)
}

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

// packTranspose writes srcᵀ into dst: src is [rows, cols] row-major,
// dst becomes [cols, rows]. Matrices that fit in L1 take a direct
// two-loop pass; larger ones are blocked for cache friendliness.
func packTranspose(dst, src []float32, rows, cols int) {
	const bs = 32
	if rows*cols <= 4096 {
		for r := 0; r < rows; r++ {
			row := src[r*cols : r*cols+cols]
			for c, v := range row {
				dst[c*rows+r] = v
			}
		}
		return
	}
	for r0 := 0; r0 < rows; r0 += bs {
		r1 := min(r0+bs, rows)
		for c0 := 0; c0 < cols; c0 += bs {
			c1 := min(c0+bs, cols)
			for r := r0; r < r1; r++ {
				row := src[r*cols : r*cols+cols]
				for c := c0; c < c1; c++ {
					dst[c*rows+r] = row[c]
				}
			}
		}
	}
}
