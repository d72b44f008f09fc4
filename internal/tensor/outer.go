package tensor

// This file holds the matrix micro-kernel. A product is accumulated as
// k rank-1 updates of a 4×16 register block of dst: step i loads
// u[i, c:c+16] once and multiplies it into one accumulator pair per
// output row by a broadcast of the left operand's element (i, r+j).
// The right operand is always row-major [k, n], read in place. The
// left operand is addressed by two strides, so both layouts the
// training step meets are read in place too:
//
//	tᵀ @ u   t is [k, m]   element (i, r) = t[i·m + r]   (tk, tr) = (m, 1)
//	t  @ u   t is [m, k]   element (i, r) = t[r·k + i]   (tk, tr) = (1, k)
//
// Every output element is one k-ordered multiply-add chain from zero —
// fused in the AVX2+FMA kernel, separately rounded in the portable
// loop — followed by one store that may scale it, add a bias and add
// what dst held, each a separately rounded operation in that order.
// There is no horizontal reduction and no packing. The chain never
// depends on which block, panel or batch entry the element falls in,
// so any split of the rows or columns is bit-identical to the whole.

// product is one panel's product in the kernel's terms:
//
//	dst[r·dn + c] (+)= scale · Σ_i t[i·tk + r·tr] · u[i·un + c] (+ bias[c])
//
// for c in [0, n) and whichever rows the caller asks of rows.
type product struct {
	dst, t, u []float32
	bias      []float32 // nil = none
	k, n      int       // reduction length, output columns
	tk, tr    int       // steps of t per reduction index and per output row
	un, dn    int       // row strides of u and dst
	scale     float32
	acc       bool // dst += instead of dst =
}

// outerTask is one product over a batch of independent panels of m
// output rows stored back to back: panel h is the embedded product
// moved on by h·m·dn in dst, h·m·k in t and h·k·un in u.
type outerTask struct {
	product
	m int
}

// mulTask is dst = t @ u (+ bias) for row-major t [m,k], u [k,n].
func mulTask(dst, t, u, bias []float32, m, k, n int) outerTask {
	return outerTask{product{dst: dst, t: t, u: u, bias: bias, k: k, n: n, tk: 1, tr: k, un: n, dn: n, scale: 1}, m}
}

// mulTransATask is dst = tᵀ @ u for t [k,m], u [k,n].
func mulTransATask(dst, t, u []float32, m, k, n int) outerTask {
	return outerTask{product{dst: dst, t: t, u: u, k: k, n: n, tk: m, tr: 1, un: n, dn: n, scale: 1}, m}
}

// outerRowBlock and outerColPanel are the kernel's register-block
// height in output rows and width in output columns.
const (
	outerRowBlock = 4
	outerColPanel = 16
)

// run computes all `batch` panels of the product.
func (o *outerTask) run(batch int) {
	p := o.product
	for h := 0; h < batch; h++ {
		p.dst = o.dst[h*o.m*p.dn : (h+1)*o.m*p.dn]
		p.t = o.t[h*o.m*p.k : (h+1)*o.m*p.k]
		p.u = o.u[h*p.k*p.un : (h+1)*p.k*p.un]
		p.rows(0, o.m)
	}
}

// outerMask holds the lane masks of a short last column panel:
// outerMask[16-w:] is w enabled lanes followed by 16-w disabled ones.
var outerMask = [2 * outerColPanel]int32{
	-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
}

// rows computes output rows [r0, r1) of the panel. With AVX2+FMA each
// 16-column panel of u stays in cache while the 4-row blocks sweep it
// through the assembly kernel, short blocks and the short last panel
// included (same chain, fewer rows or masked lanes); otherwise the
// portable loop below does the same chain one row at a time. An empty
// reduction takes the portable loop too: the kernel's k loop counts
// down from k and must not be entered with zero.
func (p *product) rows(r0, r1 int) {
	if !useFMA || p.k == 0 {
		p.rowsPortable(r0, r1)
		return
	}
	for c := 0; c < p.n; c += outerColPanel {
		var mask *int32
		if w := p.n - c; w < outerColPanel {
			mask = &outerMask[outerColPanel-w]
		}
		var bias *float32
		if p.bias != nil {
			bias = &p.bias[c]
		}
		for r := r0; r < r1; r += outerRowBlock {
			outerTile4x16(&p.dst[r*p.dn+c], &p.t[r*p.tr], &p.u[c], p.k, p.tk, p.tr, p.un, p.dn,
				min(outerRowBlock, r1-r), mask, bias, p.scale, p.acc)
		}
	}
}

// rowsPortable is the reference implementation and the non-amd64 path:
// eight columns of one output row at a time, each an independent
// k-ordered chain. The float32 conversions pin every product to
// float32 rounding, so platforms whose compilers may fuse x*y+z
// compute the same bits as those that may not.
func (p *product) rowsPortable(r0, r1 int) {
	k, n, tk, un := p.k, p.n, p.tk, p.un
	for r := r0; r < r1; r++ {
		d := p.dst[r*p.dn : r*p.dn+n]
		t0 := r * p.tr
		c := 0
		for ; c+8 <= n; c += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			for i := 0; i < k; i++ {
				tv := p.t[t0+i*tk]
				ur := p.u[i*un+c : i*un+c+8]
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
			o[0], o[1], o[2], o[3] = p.finish(s0, c, o[0]), p.finish(s1, c+1, o[1]), p.finish(s2, c+2, o[2]), p.finish(s3, c+3, o[3])
			o[4], o[5], o[6], o[7] = p.finish(s4, c+4, o[4]), p.finish(s5, c+5, o[5]), p.finish(s6, c+6, o[6]), p.finish(s7, c+7, o[7])
		}
		for ; c < n; c++ {
			var s float32
			for i := 0; i < k; i++ {
				s += float32(p.t[t0+i*tk] * p.u[i*un+c])
			}
			d[c] = p.finish(s, c, d[c])
		}
	}
}

// finish applies the store's fusions to the finished chain s of column
// c, whose destination holds old, in the kernel's order.
func (p *product) finish(s float32, c int, old float32) float32 {
	s = float32(s * p.scale)
	if p.bias != nil {
		s += p.bias[c]
	}
	if p.acc {
		s += old
	}
	return s
}
