package tensor

import "sync"

// This file holds the k-major product kernel: dst = tᵀ @ u for
// t [k,m], u [k,n], the shape of every weight-gradient product
// (dW += xᵀ·dy) and of attention's dV/dK. Both operands have the
// reduction axis OUTERMOST, so instead of transposing them into the
// dot kernel's layout (pool.go) the product is accumulated as k rank-1
// updates: a register block of dst takes acc[j] += t[i,r+j]·u[i,c:c+w]
// for i = 0 … k-1, reading a row of u and a few adjacent elements of t
// where they lie. No packing, no horizontal reduction.
//
// Every output element is one k-ordered multiply-add chain from zero —
// fused in the AVX2+FMA kernel, separately rounded in the portable
// loop — followed by one store (or one add into dst). The chain never
// depends on which block, panel, tile or batch entry the element falls
// in, so any split of the rows is bit-identical to the whole.

// outerTask is one k-major product over `batch` independent panels:
// dst[h] (+)= t[h]ᵀ @ u[h] with t[h] [k,m], u[h] [k,n], dst[h] [m,n]
// stored back to back. It is a Job whose items are the flattened
// (panel, 4-row block) pairs, so all heads of an attention product
// share one fixed tile decomposition and a tile never cuts a register
// block.
type outerTask struct {
	dst, t, u []float32
	k, m, n   int
	acc       bool // dst += tᵀ@u instead of dst = tᵀ@u
}

// outerRowBlock is the kernel's register-block height in output rows.
const outerRowBlock = 4

// blocks is the number of row blocks per panel.
func (o *outerTask) blocks() int { return (o.m + outerRowBlock - 1) / outerRowBlock }

// Tile implements Job over flattened (panel, row-block) items.
func (o *outerTask) Tile(_, x0, x1 int) {
	blocks := o.blocks()
	for x0 < x1 {
		h := x0 / blocks
		b0 := x0 - h*blocks
		b1 := min(b0+(x1-x0), blocks)
		outerRows(
			o.dst[h*o.m*o.n:(h+1)*o.m*o.n],
			o.t[h*o.k*o.m:(h+1)*o.k*o.m],
			o.u[h*o.k*o.n:(h+1)*o.k*o.n],
			o.k, o.m, o.n, b0*outerRowBlock, min(b1*outerRowBlock, o.m), o.acc)
		x0 += b1 - b0
	}
}

// outerTaskPool recycles the boxed outerTask a dispatch hands to
// ParallelFor.
var outerTaskPool = sync.Pool{New: func() any { return new(outerTask) }}

// dispatchOuter runs a k-major product over its batch·⌈m/4⌉ row blocks.
func dispatchOuter(o outerTask, batch int) {
	p := outerTaskPool.Get().(*outerTask)
	*p = o
	ParallelFor(batch*o.blocks(), batch*o.m*o.k*o.n, p)
	*p = outerTask{}
	outerTaskPool.Put(p)
}

// outerMask holds the lane masks of a short last column panel:
// outerMask[16-w:] is w enabled lanes followed by 16-w disabled ones.
var outerMask = [32]int32{
	-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
}

// outerRows computes rows [r0, r1) of dst (+)= tᵀ @ u for one panel.
// With AVX2+FMA each 4-row block sweeps the 16-column panels of u
// through the assembly kernel, short blocks and the short last panel
// included (same chain, fewer rows or masked lanes); otherwise the
// portable loop below does the same chain one row at a time.
func outerRows(dst, t, u []float32, k, m, n, r0, r1 int, acc bool) {
	if !useFMA || k == 0 {
		outerRowsPortable(dst, t, u, k, m, n, r0, r1, acc)
		return
	}
	for r := r0; r < r1; r += outerRowBlock {
		rows := min(outerRowBlock, r1-r)
		c := 0
		for ; c+16 <= n; c += 16 {
			outerTile4x16(&dst[r*n+c], &t[r], &u[c], k, m, n, rows, nil, acc)
		}
		if c < n {
			outerTile4x16(&dst[r*n+c], &t[r], &u[c], k, m, n, rows, &outerMask[16-(n-c)], acc)
		}
	}
}

// outerRowsPortable is the reference implementation and the
// non-amd64 path: eight columns of one output row at a time, each an
// independent k-ordered chain. The float32 conversions pin every
// product to float32 rounding, so platforms whose compilers may fuse
// x*y+z compute the same bits as those that may not.
func outerRowsPortable(dst, t, u []float32, k, m, n, r0, r1 int, acc bool) {
	for r := r0; r < r1; r++ {
		d := dst[r*n : r*n+n]
		c := 0
		for ; c+8 <= n; c += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			for i := 0; i < k; i++ {
				tv := t[i*m+r]
				ur := u[i*n+c : i*n+c+8]
				s0 += float32(tv * ur[0])
				s1 += float32(tv * ur[1])
				s2 += float32(tv * ur[2])
				s3 += float32(tv * ur[3])
				s4 += float32(tv * ur[4])
				s5 += float32(tv * ur[5])
				s6 += float32(tv * ur[6])
				s7 += float32(tv * ur[7])
			}
			o := d[c : c+8]
			if acc {
				s0, s1, s2, s3 = o[0]+s0, o[1]+s1, o[2]+s2, o[3]+s3
				s4, s5, s6, s7 = o[4]+s4, o[5]+s5, o[6]+s6, o[7]+s7
			}
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
		for ; c < n; c++ {
			var s float32
			for i := 0; i < k; i++ {
				s += float32(t[i*m+r] * u[i*n+c])
			}
			if acc {
				s += d[c]
			}
			d[c] = s
		}
	}
}
