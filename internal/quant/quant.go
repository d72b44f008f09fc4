// Package quant implements block-quantized weight storage for the
// serving path: int8 and Q4_0 formats with one float32 scale per
// 32-element block, following the llama.cpp/ggml family of formats.
//
// A Quantized container holds a 2-D weight matrix [rows, cols] whose
// reduction axis (rows) is the inner dimension of a matmul. Storage is
// panel-major: column c of the logical matrix is a contiguous
// quantized panel of `rows` elements, so each scale block runs along
// the reduction axis and the dequant-fused matmul in internal/tensor
// reconstructs a group of panels as the columns of one kernel operand.
//
// Per 32-element block:
//
//   - Int8: d = max|v|/127, q_i = round(v_i/d) in [-127, 127],
//     stored as 32 int8 bytes + one float32 scale → 1.125 bytes/param.
//   - Q4_0: d = maxv/-8 where maxv is the signed value of largest
//     magnitude, q_i = trunc(v_i/d + 8.5) clamped to [0, 15], stored
//     as 16 nibble-packed bytes + one float32 scale → 0.625
//     bytes/param (6.4x smaller than float32). Dequantization is
//     (q_i - 8)·d.
//
// The package is pure (no dependency on internal/tensor); the tensor
// package aliases Quantized and fuses dequantization into its matmul.
package quant

import (
	"fmt"
	"math"
)

// Block is the quantization block size: one scale per Block
// consecutive elements along a panel.
const Block = 32

// Kind selects a quantized storage format.
type Kind uint8

const (
	// Int8 stores one signed byte per element (1.125 bytes/param with
	// scales).
	Int8 Kind = 1
	// Q4_0 stores one unsigned nibble per element with a zero-point
	// fixed at 8 (0.625 bytes/param with scales).
	Q4_0 Kind = 2
)

// Valid reports whether k is a known quantized format.
func (k Kind) Valid() bool { return k == Int8 || k == Q4_0 }

func (k Kind) String() string {
	switch k {
	case Int8:
		return "int8"
	case Q4_0:
		return "q4_0"
	default:
		return fmt.Sprintf("quant.Kind(%d)", uint8(k))
	}
}

// ParseKind maps the CLI spellings to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "int8", "i8":
		return Int8, nil
	case "q4", "q4_0":
		return Q4_0, nil
	default:
		return 0, fmt.Errorf("quant: unknown kind %q (want int8 or q4)", s)
	}
}

// BlocksPerPanel returns the number of scale blocks covering one
// panel of `rows` elements (the final block may be partial).
func BlocksPerPanel(rows int) int { return (rows + Block - 1) / Block }

// PanelBytes returns the quantized byte length of one panel.
func PanelBytes(k Kind, rows int) int {
	switch k {
	case Int8:
		return rows
	case Q4_0:
		return BlocksPerPanel(rows) * Block / 2
	default:
		return 0
	}
}

// DataLen returns the total quantized data length of a [rows, cols]
// matrix at kind k.
func DataLen(k Kind, rows, cols int) int { return cols * PanelBytes(k, rows) }

// ScalesLen returns the number of block scales of a [rows, cols]
// matrix.
func ScalesLen(rows, cols int) int { return cols * BlocksPerPanel(rows) }

// Quantized is a block-quantized 2-D weight [rows, cols] in
// panel-major layout. It is immutable after construction and safe to
// share across goroutines — the serving memory win comes from replicas
// and workers sharing one container instead of each packing a float32
// copy.
type Quantized struct {
	kind   Kind
	rows   int // reduction axis (matmul inner dimension)
	cols   int // output columns
	data   []byte
	scales []float32
}

// Quantize compresses a row-major [rows, cols] float32 weight into a
// panel-major quantized container.
func Quantize(w []float32, rows, cols int, kind Kind) *Quantized {
	if !kind.Valid() {
		panic(fmt.Sprintf("quant: Quantize with invalid kind %d", kind))
	}
	if rows <= 0 || cols <= 0 || len(w) != rows*cols {
		panic(fmt.Sprintf("quant: Quantize [%d, %d] over %d values", rows, cols, len(w)))
	}
	q := &Quantized{
		kind:   kind,
		rows:   rows,
		cols:   cols,
		data:   make([]byte, DataLen(kind, rows, cols)),
		scales: make([]float32, ScalesLen(rows, cols)),
	}
	panel := make([]float32, rows)
	nb := BlocksPerPanel(rows)
	pb := PanelBytes(kind, rows)
	for c := 0; c < cols; c++ {
		for i := 0; i < rows; i++ {
			panel[i] = w[i*cols+c]
		}
		pd := q.data[c*pb : (c+1)*pb]
		ps := q.scales[c*nb : (c+1)*nb]
		for b := 0; b < nb; b++ {
			lo := b * Block
			hi := min(lo+Block, rows)
			switch kind {
			case Int8:
				ps[b] = quantBlockI8(panel[lo:hi], pd[lo:hi])
			case Q4_0:
				ps[b] = quantBlockQ4(panel[lo:hi], pd[b*Block/2:(b+1)*Block/2])
			}
		}
	}
	return q
}

// quantBlockI8 quantizes up to Block values into int8 bytes, returning
// the block scale.
func quantBlockI8(src []float32, dst []byte) float32 {
	var amax float32
	for _, v := range src {
		if a := abs32(v); a > amax {
			amax = a
		}
	}
	if amax == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	d := amax / 127
	id := 1 / d
	for i, v := range src {
		q := int32(math.Round(float64(v * id)))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = byte(int8(q))
	}
	return d
}

// quantBlockQ4 quantizes up to Block values into Block/2 nibble-packed
// bytes, returning the block scale. Trailing positions of a partial
// final block are stored as the zero-point nibble 8, so they
// dequantize to exactly 0.
func quantBlockQ4(src []float32, dst []byte) float32 {
	var amax, maxv float32
	for _, v := range src {
		if a := abs32(v); a > amax {
			amax, maxv = a, v
		}
	}
	if amax == 0 {
		for i := range dst {
			dst[i] = 0x88
		}
		return 0
	}
	// Signed max maps to -8, the widest end of the nibble range; the
	// truncating +8.5 conversion rounds to nearest for the in-range
	// values.
	d := maxv / -8
	id := 1 / d
	for j := range dst {
		q0, q1 := 8, 8
		if i := 2 * j; i < len(src) {
			q0 = nib(src[i] * id)
		}
		if i := 2*j + 1; i < len(src) {
			q1 = nib(src[i] * id)
		}
		dst[j] = byte(q0) | byte(q1)<<4
	}
	return d
}

// nib converts a scaled value to its [0, 15] nibble code.
func nib(x float32) int {
	v := int(x + 8.5)
	if v < 0 {
		return 0
	}
	if v > 15 {
		return 15
	}
	return v
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// FromParts reconstructs a container from stored components,
// validating every length against the declared geometry and rejecting
// non-finite scales — the checkpoint reader's bounds checking lives
// here so a crafted file can never build a container whose accessors
// read out of range or poison a forward with NaN.
func FromParts(kind Kind, rows, cols int, data []byte, scales []float32) (*Quantized, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("quant: invalid kind %d", kind)
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("quant: invalid shape [%d, %d]", rows, cols)
	}
	if want := DataLen(kind, rows, cols); len(data) != want {
		return nil, fmt.Errorf("quant: %s data length %d, shape [%d, %d] needs %d", kind, len(data), rows, cols, want)
	}
	if want := ScalesLen(rows, cols); len(scales) != want {
		return nil, fmt.Errorf("quant: %d block scales, shape [%d, %d] needs %d", len(scales), rows, cols, want)
	}
	for i, s := range scales {
		if f := float64(s); math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("quant: block scale %d is not finite", i)
		}
	}
	return &Quantized{kind: kind, rows: rows, cols: cols, data: data, scales: scales}, nil
}

// Kind returns the storage format.
func (q *Quantized) Kind() Kind { return q.kind }

// Rows returns the reduction-axis length (matmul inner dimension).
func (q *Quantized) Rows() int { return q.rows }

// Cols returns the number of output columns (panels).
func (q *Quantized) Cols() int { return q.cols }

// Data returns the packed quantized bytes (panel-major).
func (q *Quantized) Data() []byte { return q.data }

// Scales returns the per-block scales (panel-major).
func (q *Quantized) Scales() []float32 { return q.scales }

// Bytes returns the container's storage footprint: quantized data plus
// float32 scales.
func (q *Quantized) Bytes() int { return len(q.data) + 4*len(q.scales) }

// DequantPanelsInto reconstructs panels [c0, c1) into dst as the
// row-major [rows, c1-c0] strip of the matrix they are the columns of:
// element i of panel c lands at dst[i*(c1-c0) + c-c0] — the right
// operand of a matmul over those columns, reduction axis outermost.
// This is the fused matmul's inner dequantization on the portable path;
// it allocates nothing.
func (q *Quantized) DequantPanelsInto(dst []float32, c0, c1 int) {
	q.DequantRowsInto(dst, c1-c0, c0, c1, 0)
}

// DequantRowsInto reconstructs rows [r0, rows) of panels [c0, c1):
// element i of panel c lands at dst[i*stride + c-c0]. Every element is
// float32(q_i)·d, one conversion and one multiply, so a vector strip
// writer that covers the leading rows and panels and finishes the rest
// here writes DequantPanelsInto's bits.
func (q *Quantized) DequantRowsInto(dst []float32, stride, c0, c1, r0 int) {
	rows := q.rows
	if c0 < 0 || c1 > q.cols || c0 > c1 || r0 < 0 || stride < c1-c0 ||
		(c0 < c1 && r0 < rows && len(dst) < (rows-1)*stride+c1-c0) {
		panic(fmt.Sprintf("quant: DequantRowsInto rows [%d, %d) of panels [%d, %d) of %d, stride %d, into %d values",
			r0, rows, c0, c1, q.cols, stride, len(dst)))
	}
	nb := BlocksPerPanel(rows)
	pb := PanelBytes(q.kind, rows)
	for c := c0; c < c1; c++ {
		out := dst[c-c0:]
		ps := q.scales[c*nb : (c+1)*nb]
		pd := q.data[c*pb : (c+1)*pb]
		switch q.kind {
		case Int8:
			for b := r0 / Block; b < nb; b++ {
				d := ps[b]
				base := b * Block
				for i := max(base, r0); i < min(base+Block, rows); i++ {
					out[i*stride] = float32(int8(pd[i])) * d
				}
			}
		case Q4_0:
			for b := r0 / Block; b < nb; b++ {
				d := ps[b]
				base := b * Block
				for j := 0; j < Block/2; j++ {
					v := pd[b*Block/2+j]
					if i := base + 2*j; i >= r0 && i < rows {
						out[i*stride] = float32(int(v&0x0f)-8) * d
					}
					if i := base + 2*j + 1; i >= r0 && i < rows {
						out[i*stride] = float32(int(v>>4)-8) * d
					}
				}
			}
		}
	}
}

// DequantizeInto reconstructs the full row-major [rows, cols] float32
// matrix into dst.
func (q *Quantized) DequantizeInto(dst []float32) {
	if len(dst) != q.rows*q.cols {
		panic(fmt.Sprintf("quant: DequantizeInto %d values, shape [%d, %d]", len(dst), q.rows, q.cols))
	}
	q.DequantPanelsInto(dst, 0, q.cols)
}
