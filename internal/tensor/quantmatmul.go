package tensor

import (
	"fmt"

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
// [k, n] weight, fusing block dequantization into the matrix kernel.
// The 16 quantized columns of each of the kernel's column panels are
// dequantized once, into a pooled [k, 16] strip, and all m rows sweep
// that strip through the matrix kernel as a product whose u is the
// strip and whose dst is those columns. An output element's chain does
// not depend on the panel it falls in (outer.go), so the result is
// bit-identical to MatMulBiasInto over the dequantized weight. The
// steady state allocates nothing.
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
	strip := getPack(outerColPanel * k)
	all := mulTask(dst.data, t.data, nil, biasData(bias, n, "MatMulQuantInto"), m, k, n).product
	for c := 0; c < n; c += outerColPanel {
		w := min(outerColPanel, n-c)
		dequantStrip(*strip, q, c, w)
		p := all
		p.dst, p.u, p.n, p.un = p.dst[c:], *strip, w, w
		if p.bias != nil {
			p.bias = p.bias[c:]
		}
		p.rows(0, m)
	}
	putPack(strip)
	return dst
}
