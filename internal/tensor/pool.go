package tensor

import (
	"runtime"
	"sync"
)

// This file holds the packed dot-product kernel — the oldest client
// of the worker pool, which parallel.go has since generalized into
// the ParallelFor/Job runtime every hot kernel (batched attention
// products, softmax/GELU, LayerNorm, FFT, AFNO, optimizer updates)
// dispatches through. The dot kernel's single-matrix and batched
// (head-major) dispatchers both live here: a dotTask is a Job whose
// items are output rows, and a batchedDotTask flattens the
// (batch, row) space so all B·H heads of an attention product share
// one fixed tile decomposition. Tile ownership is fixed (parallel.go)
// and each output row's reduction sequence never depends on how rows
// are grouped, so results are bit-identical at any worker count.

// dotMode selects how the micro-kernel writes its register
// accumulators back to the destination.
type dotMode uint8

const (
	dotOverwrite dotMode = iota // dst[r,c] = scale·s
	dotBias                     // dst[r,c] = bias[c] + scale·s
)

// dotTask is one packed-dot-product kernel invocation: compute
// dst[r,c] ← op(Σ_i a[r,i]·bt[c,i]). Dispatches borrow a pooled
// instance so the steady state allocates nothing.
type dotTask struct {
	dst, a, bt, bias []float32
	k, n             int
	scale            float32
	mode             dotMode
}

// Tile implements Job over output rows.
func (t *dotTask) Tile(_, r0, r1 int) { dotRange(t, r0, r1) }

// dotTaskPool recycles the boxed dotTask a parallel dispatch shares
// across its tiles.
var dotTaskPool = sync.Pool{New: func() any { return new(dotTask) }}

// dispatchDot runs a dot task over m rows, splitting it across the
// worker pool when the arithmetic is large enough to amortize handoff.
func dispatchDot(t dotTask, m int) {
	if m == 1 || m*t.k*t.n < parallelThreshold || runtime.GOMAXPROCS(0) == 1 {
		dotRange(&t, 0, m)
		return
	}
	dt := dotTaskPool.Get().(*dotTask)
	*dt = t
	forkTiles(m, NumTiles(m), dt)
	*dt = dotTask{}
	dotTaskPool.Put(dt)
}

// batchedDotTask runs the dot kernel over the flattened (batch, row)
// item space: item u is row u%m of batch entry u/m. Parallelizing
// over this flat space instead of nesting a per-batch dispatch keeps
// all B·H attention heads under ONE fixed tile decomposition (no
// nested ParallelFor from a worker) while still splitting within a
// head when the batch count is small.
type batchedDotTask struct {
	t                            dotTask // per-head template: k, n, scale, mode, bias
	m                            int     // rows per batch entry
	dst, a, bt                   []float32
	dstStride, aStride, btStride int
}

// Tile implements Job over flattened (batch, row) items.
func (b *batchedDotTask) Tile(_, u0, u1 int) {
	t := b.t
	for u0 < u1 {
		h := u0 / b.m
		r0 := u0 - h*b.m
		r1 := r0 + (u1 - u0)
		if r1 > b.m {
			r1 = b.m
		}
		t.dst = b.dst[h*b.dstStride : (h+1)*b.dstStride]
		t.a = b.a[h*b.aStride : (h+1)*b.aStride]
		t.bt = b.bt[h*b.btStride : (h+1)*b.btStride]
		dotRange(&t, r0, r1)
		u0 += r1 - r0
	}
}

var batchedDotTaskPool = sync.Pool{New: func() any { return new(batchedDotTask) }}

// dispatchDotBatched runs a batched dot task over batch·m rows.
func dispatchDotBatched(t batchedDotTask, batch int) {
	n := batch * t.m
	if n*t.t.k*t.t.n < parallelThreshold || runtime.GOMAXPROCS(0) == 1 {
		t.Tile(0, 0, n)
		return
	}
	bt := batchedDotTaskPool.Get().(*batchedDotTask)
	*bt = t
	forkTiles(n, NumTiles(n), bt)
	*bt = batchedDotTask{}
	batchedDotTaskPool.Put(bt)
}

// packBatch is the Job that transposes every batch entry's operand
// panel ahead of a batched product: item h packs src entry h into
// dst entry h.
type packBatch struct {
	dst, src             []float32
	rows, cols           int
	dstStride, srcStride int
}

// Tile implements Job over batch entries.
func (p *packBatch) Tile(_, h0, h1 int) {
	for h := h0; h < h1; h++ {
		packTranspose(p.dst[h*p.dstStride:(h+1)*p.dstStride], p.src[h*p.srcStride:(h+1)*p.srcStride], p.rows, p.cols)
	}
}

var packBatchPool = sync.Pool{New: func() any { return new(packBatch) }}

// packBatched transposes all `batch` panels of src ([rows, cols]
// each) into dst, in parallel across entries when large enough.
func packBatched(dst, src []float32, batch, rows, cols int) {
	p := packBatchPool.Get().(*packBatch)
	*p = packBatch{dst: dst, src: src, rows: rows, cols: cols,
		dstStride: rows * cols, srcStride: rows * cols}
	ParallelFor(batch, batch*rows*cols, p)
	*p = packBatch{}
	packBatchPool.Put(p)
}

// packPool recycles the packing buffers used to transpose operands
// into the contiguous row-major panels the dot kernel streams. The
// pool stores *[]float32 rather than []float32: putting a bare slice
// would box its header into an interface and allocate on every Put,
// defeating the zero-allocation steady state.
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

// dotRange is the register-blocked micro-kernel: a 2×4 block of output
// values is accumulated while both operands stream contiguously
// (a row-major, bt pre-transposed row-major). On CPUs with AVX2+FMA
// the block reduction runs in the assembly kernel at eight lanes per
// instruction with the sub-vector tail handled here; elsewhere a pure
// scalar loop with eight register accumulators computes the same
// block. Reslicing every panel to a common length lets the compiler
// prove the scalar indexed loads in bounds.
func dotRange(t *dotTask, r0, r1 int) {
	k, n := t.k, t.n
	a, bt := t.a, t.bt
	vector := useFMA && k >= 8
	c := 0
	for ; c+4 <= n; c += 4 {
		b0 := bt[c*k : c*k+k]
		b1 := bt[(c+1)*k : (c+1)*k+k][:len(b0)]
		b2 := bt[(c+2)*k : (c+2)*k+k][:len(b0)]
		b3 := bt[(c+3)*k : (c+3)*k+k][:len(b0)]
		r := r0
		for ; r+2 <= r1; r += 2 {
			a0 := a[r*k : r*k+k][:len(b0)]
			a1 := a[(r+1)*k : (r+1)*k+k][:len(b0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float32
			if vector {
				var sums [8]float32
				dotBlock2x4(&a0[0], &a1[0], &b0[0], k, &sums)
				s00, s01, s02, s03 = sums[0], sums[1], sums[2], sums[3]
				s10, s11, s12, s13 = sums[4], sums[5], sums[6], sums[7]
				for i := k &^ 7; i < k; i++ {
					av0, av1 := a0[i], a1[i]
					bv0, bv1, bv2, bv3 := b0[i], b1[i], b2[i], b3[i]
					s00 += av0 * bv0
					s01 += av0 * bv1
					s02 += av0 * bv2
					s03 += av0 * bv3
					s10 += av1 * bv0
					s11 += av1 * bv1
					s12 += av1 * bv2
					s13 += av1 * bv3
				}
			} else {
				for i, av0 := range a0 {
					av1 := a1[i]
					bv0, bv1, bv2, bv3 := b0[i], b1[i], b2[i], b3[i]
					s00 += av0 * bv0
					s01 += av0 * bv1
					s02 += av0 * bv2
					s03 += av0 * bv3
					s10 += av1 * bv0
					s11 += av1 * bv1
					s12 += av1 * bv2
					s13 += av1 * bv3
				}
			}
			o0 := t.dst[r*n+c : r*n+c+4]
			o1 := t.dst[(r+1)*n+c : (r+1)*n+c+4]
			sc := t.scale
			switch t.mode {
			case dotOverwrite:
				o0[0], o0[1], o0[2], o0[3] = s00*sc, s01*sc, s02*sc, s03*sc
				o1[0], o1[1], o1[2], o1[3] = s10*sc, s11*sc, s12*sc, s13*sc
			case dotBias:
				b := t.bias[c : c+4]
				o0[0], o0[1], o0[2], o0[3] = b[0]+s00*sc, b[1]+s01*sc, b[2]+s02*sc, b[3]+s03*sc
				o1[0], o1[1], o1[2], o1[3] = b[0]+s10*sc, b[1]+s11*sc, b[2]+s12*sc, b[3]+s13*sc
			}
		}
		for ; r < r1; r++ {
			ar := a[r*k : r*k+k][:len(b0)]
			var s0, s1, s2, s3 float32
			if vector {
				var sums [4]float32
				dotBlock1x4(&ar[0], &b0[0], k, &sums)
				s0, s1, s2, s3 = sums[0], sums[1], sums[2], sums[3]
				for i := k &^ 7; i < k; i++ {
					av := ar[i]
					s0 += av * b0[i]
					s1 += av * b1[i]
					s2 += av * b2[i]
					s3 += av * b3[i]
				}
			} else {
				for i, av := range ar {
					s0 += av * b0[i]
					s1 += av * b1[i]
					s2 += av * b2[i]
					s3 += av * b3[i]
				}
			}
			o := t.dst[r*n+c : r*n+c+4]
			sc := t.scale
			switch t.mode {
			case dotOverwrite:
				o[0], o[1], o[2], o[3] = s0*sc, s1*sc, s2*sc, s3*sc
			case dotBias:
				b := t.bias[c : c+4]
				o[0], o[1], o[2], o[3] = b[0]+s0*sc, b[1]+s1*sc, b[2]+s2*sc, b[3]+s3*sc
			}
		}
	}
	for ; c < n; c++ {
		bc := bt[c*k : c*k+k]
		for r := r0; r < r1; r++ {
			ar := a[r*k : r*k+k][:len(bc)]
			var s float32
			for i, av := range ar {
				s += av * bc[i]
			}
			t.store1(r, c, s)
		}
	}
}

func (t *dotTask) store1(r, c int, s float32) {
	switch t.mode {
	case dotOverwrite:
		t.dst[r*t.n+c] = s * t.scale
	case dotBias:
		t.dst[r*t.n+c] = t.bias[c] + s*t.scale
	}
}
