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
// quantized container: one quantized panel per output column, scale
// blocks along the reduction axis.
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

// quantTask is one dequant-fused matmul dispatch: dst = a·W (+bias)
// where W lives in a quantized container. The Job item space is the
// kernel's 16-column panels: the 16 quantized columns of one are
// dequantized exactly once per dispatch, into the tile's own [k, 16]
// strip of the scratch, and all m rows sweep that strip through the
// matrix kernel as a product whose u is the strip and whose dst is
// those columns. An output element's chain does not depend on the
// panel it falls in (outer.go), so the result is bit-identical to
// MatMulBiasInto over the dequantized weight, at any worker count.
type quantTask struct {
	product // dst, t, bias and strides of the whole product; u, n and un are set per column panel
	scratch []float32
	q       *Quantized
	m       int
}

var quantTaskPool = sync.Pool{New: func() any { return new(quantTask) }}

// Tile implements Job over column panels.
func (t *quantTask) Tile(tile, g0, g1 int) {
	n := t.q.Cols()
	strip := t.scratch[tile*outerColPanel*t.k : (tile+1)*outerColPanel*t.k]
	for g := g0; g < g1; g++ {
		c := g * outerColPanel
		w := min(outerColPanel, n-c)
		dequantStrip(strip, t.q, c, w)
		p := t.product
		p.dst, p.u, p.n, p.un = p.dst[c:], strip, w, w
		if p.bias != nil {
			p.bias = p.bias[c:]
		}
		p.rows(0, t.m)
	}
}

// dequantStrip writes panels [c, c+w) of q into strip as the row-major
// [k, w] operand of their product: the vector kernel takes the leading
// k&^7 rows of the leading w&^7 panels, eight by eight, and
// DequantRowsInto the row and column tails — all of it with the CPU
// gate off. Each element is float32(q)·d either way, so the strip holds
// q.DequantPanelsInto's bits.
func dequantStrip(strip []float32, q *Quantized, c, w int) {
	k := q.Rows()
	k8, w8 := whole(k), whole(w)
	if k8 == 0 || w8 == 0 {
		q.DequantPanelsInto(strip, c, c+w)
		return
	}
	pb, nb := quant.PanelBytes(q.Kind(), k), quant.BlocksPerPanel(k)
	data, scales := q.Data(), q.Scales()
	_ = strip[(k8-1)*w+w8-1]
	for j := 0; j < w8; j += 8 {
		p := c + j
		dequantVec(&strip[j], &data[p*pb], &scales[p*nb], k8, w, pb, nb, q.Kind() == QuantQ4)
	}
	q.DequantRowsInto(strip, w, c, c+w8, k8)
	q.DequantRowsInto(strip[w8:], w, c+w8, c+w, 0)
}

// MatMulQuantInto computes dst = t·W (+ bias) where W is a quantized
// [k, n] weight, fusing block dequantization into the matrix kernel:
// each tile dequantizes its column panels into pooled scratch and runs
// them through the same kernel as the f32 path. The steady state
// allocates nothing and the result is bit-identical to MatMulBiasInto
// over the dequantized weight at any worker count.
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
	if m == 0 {
		return dst // no row to slice a column panel out of
	}
	groups := (n + outerColPanel - 1) / outerColPanel
	scratch := getPack(NumTiles(groups) * outerColPanel * k)
	qt := quantTaskPool.Get().(*quantTask)
	*qt = quantTask{product: mulTask(dst.data, t.data, nil, biasData(bias, n, "MatMulQuantInto"), m, k, n).product,
		scratch: *scratch, q: q, m: m}
	ParallelFor(groups, OpQuantMatMul.Flops(m*k*n), qt)
	*qt = quantTask{}
	quantTaskPool.Put(qt)
	putPack(scratch)
	return dst
}
