package ckpt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"orbit/internal/nn"
	"orbit/internal/quant"
	"orbit/internal/vit"
)

// ErrNotQuantized reports that a structurally valid checkpoint holds a
// different kind than LoadQuantized expects. Callers use errors.Is to
// fall back to the float32 loader.
var ErrNotQuantized = errors.New("ckpt: not a quantized checkpoint")

// quantizable reports whether a parameter is stored block-quantized in
// a kindQuantWeights checkpoint: the 2-D matmul weights whose
// reduction axis spans at least one quantization block. Norm
// gains/biases, linear biases, and the positional/variable embeddings
// stay float32 — they are a rounding-error share of the bytes and
// disproportionately sensitive to quantization noise.
func quantizable(p *nn.Param) bool {
	return p.W.Rank() == 2 &&
		len(p.Name) > 7 && p.Name[len(p.Name)-7:] == ".weight" &&
		p.W.Dim(0) >= quant.Block && p.W.Dim(1) >= 4
}

// SaveQuantized writes a kindQuantWeights checkpoint: the model's
// matmul weights block-quantized at `kind` (scale per 32 elements),
// everything else float32, in the ORBT v3 container with per-section
// CRC32C. The write is atomic like Save; a non-finite weight to
// quantize fails it, naming the parameter, and writes nothing.
func SaveQuantized(path string, m *vit.Model, kind quant.Kind) error {
	if !kind.Valid() {
		return fmt.Errorf("ckpt: SaveQuantized with invalid quant kind %d", kind)
	}
	qdt := dtypeI8
	if kind == quant.Q4_0 {
		qdt = dtypeQ4
	}
	dtype := func(p *nn.Param) uint8 {
		if quantizable(p) {
			return qdt
		}
		return dtypeF32
	}
	return atomicWrite(path, func(w io.Writer) error {
		return writeModel(newCRCWriter(w), m, kindQuantWeights, dtype)
	})
}

// finiteWeights fails for a weight holding a NaN or an Inf. Quantizing
// one does not fail on its own: a NaN becomes a finite wrong code
// (-127·d under int8, +8·|d| under Q4_0) and an Inf makes its block
// scale Inf, which quant.FromParts then refuses to load.
func finiteWeights(p *nn.Param) error {
	for i, v := range p.W.Data() {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("element %d is %v: a quantized weight must be finite", i, v)
		}
	}
	return nil
}

// writeQuantParam emits the body of a block-quantized parameter
// section, after writeParam's name / numel / dtype prefix: the
// [rows, cols] geometry, then the block scales and packed data. Scale
// and data lengths are pure functions of (dtype, rows, cols), so the
// reader never trusts a stored length. A non-finite weight fails it.
func writeQuantParam(w io.Writer, p *nn.Param, dt uint8) error {
	if err := finiteWeights(p); err != nil {
		return err
	}
	kind := quant.Int8
	if dt == dtypeQ4 {
		kind = quant.Q4_0
	}
	rows, cols := p.W.Dim(0), p.W.Dim(1)
	if err := binary.Write(w, binary.LittleEndian, uint32(rows)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(cols)); err != nil {
		return err
	}
	q := quant.Quantize(p.W.Data(), rows, cols, kind)
	buf := make([]byte, 4*len(q.Scales()))
	for i, s := range q.Scales() {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(s))
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	_, err := w.Write(q.Data())
	return err
}

// readQuantParam parses one quantized parameter section (after the
// name/numel prefix and dtype byte) and dequantizes it into the
// parameter. Every allocation is bounded by the model geometry the
// config section already declared — the stored [rows, cols] must match
// the parameter's own shape, so a corrupt geometry can never size a
// buffer. A non-nil qout collects the validated container.
func readQuantParam(r io.Reader, p *nn.Param, dt uint8, qout map[string]*quant.Quantized) error {
	kind := quant.Int8
	if dt == dtypeQ4 {
		kind = quant.Q4_0
	}
	var rows, cols uint32
	if err := binary.Read(r, binary.LittleEndian, &rows); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &cols); err != nil {
		return err
	}
	if p.W.Rank() != 2 || int(rows) != p.W.Dim(0) || int(cols) != p.W.Dim(1) {
		return fmt.Errorf("quantized shape [%d, %d] does not match parameter %v", rows, cols, p.W.Shape())
	}
	nScales := quant.ScalesLen(int(rows), int(cols))
	buf := make([]byte, 4*nScales)
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	scales := make([]float32, nScales)
	for i := range scales {
		scales[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	data := make([]byte, quant.DataLen(kind, int(rows), int(cols)))
	if _, err := io.ReadFull(r, data); err != nil {
		return err
	}
	q, err := quant.FromParts(kind, int(rows), int(cols), data, scales)
	if err != nil {
		return err
	}
	q.DequantizeInto(p.W.Data())
	if qout != nil {
		qout[p.Name] = q
	}
	return nil
}

// QuantizeModel block-quantizes the model's matmul weights in place:
// each quantizable parameter is replaced by its dequantized
// reconstruction — bit-identical to what a SaveQuantized →
// LoadQuantized round trip would yield — and the containers come back
// keyed by parameter name, ready for the inference engine. This is the
// serve-time path for quantizing a float32 checkpoint without writing
// a quantized file first. A non-finite weight to quantize fails it,
// naming the parameter, before any weight changes.
func QuantizeModel(m *vit.Model, kind quant.Kind) (map[string]*quant.Quantized, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("ckpt: QuantizeModel with invalid quant kind %d", kind)
	}
	for _, p := range m.Params() {
		if quantizable(p) {
			if err := finiteWeights(p); err != nil {
				return nil, fmt.Errorf("ckpt: quantizing %s: %w", p.Name, err)
			}
		}
	}
	qs := make(map[string]*quant.Quantized)
	for _, p := range m.Params() {
		if !quantizable(p) {
			continue
		}
		q := quant.Quantize(p.W.Data(), p.W.Dim(0), p.W.Dim(1), kind)
		q.DequantizeInto(p.W.Data())
		p.W.Bump()
		qs[p.Name] = q
	}
	return qs, nil
}

// LoadQuantized reads a kindQuantWeights checkpoint, returning the
// dequantized model plus the quantized containers keyed by parameter
// name (only the block-quantized weights appear in the map; float32
// sections do not). Any other checkpoint kind returns ErrNotQuantized
// so callers can fall back to Load; corruption comes back as a
// *CorruptError like every v3 read.
func LoadQuantized(path string) (*vit.Model, map[string]*quant.Quantized, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	qs := make(map[string]*quant.Quantized)
	m, kind, err := read(newCRCReader(bufio.NewReader(f), path), fileBudget(f), qs)
	if err != nil {
		return nil, nil, corruptAt(path, err)
	}
	if kind != kindQuantWeights {
		return nil, nil, fmt.Errorf("%w: %s has kind %d", ErrNotQuantized, path, kind)
	}
	return m, qs, nil
}
