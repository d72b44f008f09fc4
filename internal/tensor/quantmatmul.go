package tensor

import (
	"fmt"
	"sync"

	"orbit/internal/quant"
)

// Quantized re-exports the block-quantized weight container so callers
// layered on tensor (infer, ckpt, the serving CLI) need not import
// internal/quant directly. See that package for the int8/Q4_0 formats.
type Quantized = quant.Quantized

// QuantKind selects a quantized storage format.
type QuantKind = quant.Kind

// Quantized storage formats (scale per 32-element block).
const (
	QuantInt8 = quant.Int8
	QuantQ4   = quant.Q4_0
)

// QuantizeTensor compresses a 2-D weight [k, n] into a panel-major
// quantized container whose panels are the dot kernel's operand
// layout.
func QuantizeTensor(w *Tensor, kind QuantKind) *Quantized {
	if len(w.shape) != 2 {
		panic(fmt.Sprintf("tensor: QuantizeTensor requires a 2-D weight, got %v", w.shape))
	}
	return quant.Quantize(w.data, w.shape[0], w.shape[1], kind)
}

// DequantizeTensor reconstructs the full-precision [rows, cols] weight.
func DequantizeTensor(q *Quantized) *Tensor {
	t := New(q.Rows(), q.Cols())
	q.DequantizeInto(t.data)
	return t
}

// dotMode selects how the dot micro-kernel's last user writes its
// register accumulators back to the destination.
type dotMode uint8

const (
	dotOverwrite dotMode = iota // dst[r,c] = s
	dotBias                     // dst[r,c] = bias[c] + s
)

// quantDotTask is one dequant-fused matmul dispatch: dst = a·W (+bias)
// where W lives in a quantized container. The Job item space is groups
// of four output columns — the same global 4-column grouping dotRange
// uses — so each quantized panel is dequantized exactly once per
// dispatch, into the tile's own scratch segment, and every output
// element's reduction runs through the identical micro-kernel sequence
// as the float32 packed matmul. Results are therefore bit-identical to
// MatMulPackedBInto over the dequantized weight, at any worker count.
type quantDotTask struct {
	dst, a, bias, scratch []float32
	q                     *Quantized
	m, k, n               int
	mode                  dotMode
}

var quantDotTaskPool = sync.Pool{New: func() any { return new(quantDotTask) }}

// Tile implements Job over 4-column groups.
func (t *quantDotTask) Tile(tile, g0, g1 int) {
	k := t.k
	seg := t.scratch[tile*4*k : (tile+1)*4*k]
	for g := g0; g < g1; g++ {
		c := g * 4
		cw := t.n - c
		if cw > 4 {
			cw = 4
		}
		panels := seg[:cw*k]
		t.q.DequantPanelsInto(panels, c, c+cw)
		if cw == 4 {
			t.group4(panels, c)
		} else {
			// Trailing columns take the scalar single-column path, like
			// dotRange's own n%4 tail.
			for j := 0; j < cw; j++ {
				t.col1(panels[j*k:(j+1)*k], c+j)
			}
		}
	}
}

// group4 computes all m rows of one full 4-column group from the
// dequantized panels, mirroring dotRange's register blocking (2×4
// blocks, AVX2+FMA assembly with the scalar tail, pure scalar
// fallback) so the float op order matches the f32 kernel exactly.
func (t *quantDotTask) group4(panels []float32, c int) {
	k, n, m := t.k, t.n, t.m
	a := t.a
	b0 := panels[0:k]
	b1 := panels[k : 2*k][:len(b0)]
	b2 := panels[2*k : 3*k][:len(b0)]
	b3 := panels[3*k : 4*k][:len(b0)]
	vector := useFMA && k >= 8
	r := 0
	for ; r+2 <= m; r += 2 {
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
		switch t.mode {
		case dotOverwrite:
			o0[0], o0[1], o0[2], o0[3] = s00, s01, s02, s03
			o1[0], o1[1], o1[2], o1[3] = s10, s11, s12, s13
		case dotBias:
			b := t.bias[c : c+4]
			o0[0], o0[1], o0[2], o0[3] = b[0]+s00, b[1]+s01, b[2]+s02, b[3]+s03
			o1[0], o1[1], o1[2], o1[3] = b[0]+s10, b[1]+s11, b[2]+s12, b[3]+s13
		}
	}
	for ; r < m; r++ {
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
		switch t.mode {
		case dotOverwrite:
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		case dotBias:
			b := t.bias[c : c+4]
			o[0], o[1], o[2], o[3] = b[0]+s0, b[1]+s1, b[2]+s2, b[3]+s3
		}
	}
}

// col1 computes one trailing column for all rows with the plain scalar
// reduction.
func (t *quantDotTask) col1(panel []float32, c int) {
	k, n := t.k, t.n
	for r := 0; r < t.m; r++ {
		ar := t.a[r*k : r*k+k][:len(panel)]
		var s float32
		for i, av := range ar {
			s += av * panel[i]
		}
		switch t.mode {
		case dotOverwrite:
			t.dst[r*n+c] = s
		case dotBias:
			t.dst[r*n+c] = t.bias[c] + s
		}
	}
}

// MatMulQuantInto computes dst = t·W (+ bias) where W is a quantized
// [k, n] weight, fusing block dequantization into the packed dot
// kernel: each tile dequantizes its panels into pooled scratch and
// streams them through the same AVX2/scalar micro-kernel as the f32
// path. The steady state allocates nothing and the result is
// bit-identical to MatMulPackedBInto over the dequantized weight at
// any worker count.
func MatMulQuantInto(dst, t *Tensor, q *Quantized, bias *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulQuantInto requires a 2-D input, got %v", t.shape))
	}
	m, k := t.shape[0], t.shape[1]
	if k != q.Rows() {
		panic(fmt.Sprintf("tensor: MatMulQuantInto inner dimension %d, quantized weight has %d rows", k, q.Rows()))
	}
	n := q.Cols()
	checkDst(dst, m, n, "MatMulQuantInto")
	mode := dotOverwrite
	var bd []float32
	if bias != nil {
		if bias.Len() != n {
			panic(fmt.Sprintf("tensor: MatMulQuantInto bias %v, want length %d", bias.shape, n))
		}
		mode = dotBias
		bd = bias.data
	}
	groups := (n + 3) / 4
	tiles := NumTiles(groups)
	scratch := getPack(tiles * 4 * k)
	qt := quantDotTaskPool.Get().(*quantDotTask)
	*qt = quantDotTask{dst: dst.data, a: t.data, bias: bd, scratch: *scratch, q: q, m: m, k: k, n: n, mode: mode}
	ParallelFor(groups, m*k*n, qt)
	*qt = quantDotTask{}
	quantDotTaskPool.Put(qt)
	putPack(scratch)
	return dst
}
