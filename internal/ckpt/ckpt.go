// Package ckpt serializes ORBIT checkpoints.
//
// Three artifact kinds share the "ORBT" container format:
//
//   - Weights-only checkpoints (Save/Load): model configuration plus
//     parameter tensors, optionally bfloat16 to halve the file size.
//   - Full training-state checkpoints (SaveTrainState/LoadTrainState):
//     weights plus AdamW moments, step counters, the data-order RNG
//     stream, and the dynamic loss-scaler state — everything needed to
//     resume a run with a bit-identical loss trajectory.
//   - Sharded distributed checkpoints (shard.go): a JSON manifest plus
//     one binary shard file per (TP, FSDP) grid position, so no rank
//     ever materializes the full model, matching Hybrid-STOP's memory
//     discipline. Shards reshard on load when the FSDP/DDP layout of
//     the resumed run differs from the saved one.
//
// Every file is format version 3: a CRC32C checksum follows every
// section (and sharded manifests record a digest per shard), so loads
// verify integrity before deserializing — corruption yields a typed
// *CorruptError, never silently-wrong weights. Any other version is
// rejected as corrupt.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"orbit/internal/bf16"
	"orbit/internal/nn"
	"orbit/internal/quant"
	"orbit/internal/vit"
)

const magic = "ORBT"

// Version is the container format version every writer emits and the
// only one the readers accept.
const Version = uint32(3)

// kind bytes distinguishing payloads. kindQuantWeights stores the
// large matmul weights block-quantized (int8 or Q4_0, see
// internal/quant) with norms, biases, and embeddings kept in float32.
const (
	kindWeights      = uint8(0)
	kindTrain        = uint8(1)
	kindQuantWeights = uint8(2)
)

// dtype flags for stored tensors.
const (
	dtypeF32  = uint8(0)
	dtypeBF16 = uint8(1)
	dtypeI8   = uint8(2)
	dtypeQ4   = uint8(3)
)

// Save writes the model's configuration and parameters to path.
// With half=true, weights are stored as bfloat16. The write is
// atomic: a crash mid-save never destroys an existing checkpoint at
// the same path.
func Save(path string, m *vit.Model, half bool) error {
	return atomicWrite(path, func(w io.Writer) error {
		return writeModel(newCRCWriter(w), m, kindWeights, floatDtype(half))
	})
}

// floatDtype stores every parameter as float32, or as bfloat16 when
// half.
func floatDtype(half bool) func(*nn.Param) uint8 {
	dt := dtypeF32
	if half {
		dt = dtypeBF16
	}
	return func(*nn.Param) uint8 { return dt }
}

// atomicWrite streams a checkpoint into a temp file in path's
// directory and renames it over path only on success, so the previous
// checkpoint survives a crash mid-save — the failure mode checkpoints
// exist to protect against.
func atomicWrite(path string, body func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	w := bufio.NewWriter(f)
	if err := body(w); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// writeModel emits the header, config and parameter sections, each
// followed by its CRC32C; dtype picks each parameter's stored dtype. A
// caller continuing with training-state sections must keep writing
// through the same crcWriter so its section boundaries line up with
// the reader's.
func writeModel(cw *crcWriter, m *vit.Model, kind uint8, dtype func(*nn.Param) uint8) error {
	if _, err := cw.Write([]byte(magic)); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, Version); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, kind); err != nil {
		return err
	}
	cfgJSON, err := json.Marshal(m.Config)
	if err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(cfgJSON))); err != nil {
		return err
	}
	if _, err := cw.Write(cfgJSON); err != nil {
		return err
	}
	if err := cw.section(); err != nil {
		return err
	}
	params := m.Params()
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeParam(cw, p, dtype(p)); err != nil {
			return fmt.Errorf("ckpt: writing %s: %w", p.Name, err)
		}
		if err := cw.section(); err != nil {
			return err
		}
	}
	return nil
}

// writeParam emits one parameter section: the name / numel / dtype
// prefix, then the values in dtype (the quantized dtypes through
// writeQuantParam).
func writeParam(w io.Writer, p *nn.Param, dt uint8) error {
	name := []byte(p.Name)
	if err := binary.Write(w, binary.LittleEndian, uint16(len(name))); err != nil {
		return err
	}
	if _, err := w.Write(name); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(p.W.Len())); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, dt); err != nil {
		return err
	}
	data := p.W.Data()
	switch dt {
	case dtypeBF16:
		buf := make([]byte, 2*len(data))
		for i, v := range data {
			binary.LittleEndian.PutUint16(buf[2*i:], uint16(bf16.FromFloat32(v)))
		}
		_, err := w.Write(buf)
		return err
	case dtypeI8, dtypeQ4:
		return writeQuantParam(w, p, dt)
	}
	buf := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

// Load reconstructs a model from a checkpoint file of any kind; for a
// training-state checkpoint, the trailing optimizer sections are
// ignored and just the model is returned. Section checksums are
// verified before deserializing; any structural or checksum failure
// — an unsupported version included — is reported as a *CorruptError
// (environmental errors from opening the file pass through unwrapped).
func Load(path string) (*vit.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, _, err := read(newCRCReader(bufio.NewReader(f), path), fileBudget(f), nil)
	if err != nil {
		return nil, corruptAt(path, err)
	}
	return m, nil
}

// fileBudget returns the file's size, used to bound what a declared
// configuration may ask the reader to allocate. A corrupt or
// adversarial header cannot claim a multi-gigabyte model unless the
// file actually contains that many bytes.
func fileBudget(f *os.File) int64 {
	if st, err := f.Stat(); err == nil {
		return st.Size()
	}
	return 0
}

// readHeader consumes the magic, version, and kind byte.
func readHeader(r io.Reader) (kind uint8, err error) {
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, fmt.Errorf("ckpt: truncated header: %w", err)
	}
	if string(head) != magic {
		return 0, fmt.Errorf("ckpt: bad magic %q", head)
	}
	var ver uint32
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return 0, fmt.Errorf("ckpt: truncated header: %w", err)
	}
	if ver != Version {
		return 0, fmt.Errorf("ckpt: unsupported version %d", ver)
	}
	if err := binary.Read(r, binary.LittleEndian, &kind); err != nil {
		return 0, fmt.Errorf("ckpt: truncated header: %w", err)
	}
	return kind, nil
}

// maxConfigJSON bounds the configuration section's declared length: a
// real config marshals to a few hundred bytes, so a longer claim is a
// corrupt or adversarial length prefix, not a config.
const maxConfigJSON = 1 << 20

// maxConfigDim bounds every integer field of a loaded configuration so
// the parameter-count plausibility arithmetic below cannot overflow.
const maxConfigDim = 1 << 30

// minBytesPerParam is the plausibility floor checkLoadable holds a
// declared configuration to, per checkpoint kind: bfloat16 (2 bytes)
// is the densest non-quantized dtype, while a Q4_0 quantized file
// stores its matmul weights at 0.625 bytes/param (nibbles + block
// scales). The quantized floor is 0.5 — below any legal mix of
// quantized and float32 sections — so a legitimate quantized
// checkpoint is never rejected while a header declaring a model the
// file cannot possibly hold still is.
func minBytesPerParam(kind uint8) float64 {
	if kind == kindQuantWeights {
		return 0.5
	}
	return 2
}

// checkLoadable rejects configurations a checkpoint file of `budget`
// bytes cannot possibly back: every stored parameter occupies at least
// minBytesPerParam(kind) bytes, so a header declaring more parameters
// than the budget can cover is corrupt. Fuzzing found that without
// this guard a crafted config section makes the loader allocate the
// full model before noticing the file is empty. The floor is
// kind-aware: a fixed bytes-per-param ≥ 2 assumption would reject
// every legitimate sub-bf16 quantized checkpoint as corrupt.
func checkLoadable(cfg vit.Config, budget int64, kind uint8) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	for _, d := range []int{cfg.Channels, cfg.OutChannels, cfg.Height, cfg.Width, cfg.Patch, cfg.EmbedDim, cfg.Layers, cfg.Heads} {
		if d < 0 || d > maxConfigDim {
			return fmt.Errorf("ckpt: implausible config dimension %d", d)
		}
	}
	// Float arithmetic: the plausibility bound doesn't need exactness,
	// it needs immunity to int64 overflow on adversarial dimensions.
	d := float64(cfg.EmbedDim)
	t := float64(cfg.Tokens())
	ch := float64(cfg.Channels)
	pp := float64(cfg.Patch * cfg.Patch)
	approx := ch*pp*d + t*d + float64(cfg.Layers)*(12*d*d) + d*pp*float64(cfg.OutChannels)
	if minBytesPerParam(kind)*approx > float64(budget)+float64(maxConfigJSON) {
		return fmt.Errorf("ckpt: config declares ~%.0f parameters but the file holds only %d bytes", approx, budget)
	}
	return nil
}

// read parses the header + model sections, leaving the reader at any
// trailing training-state sections. budget is the total file size,
// bounding what the declared configuration may allocate. Every section
// checksum is verified before the section's bytes are deserialized.
// Quantized parameters are always dequantized into the model; a
// non-nil qout additionally collects their containers by parameter
// name for the fused serving path.
func read(cr *crcReader, budget int64, qout map[string]*quant.Quantized) (*vit.Model, uint8, error) {
	kind, err := readHeader(cr)
	if err != nil {
		return nil, 0, err
	}
	var cfgLen uint32
	if err := binary.Read(cr, binary.LittleEndian, &cfgLen); err != nil {
		return nil, 0, err
	}
	if cfgLen > maxConfigJSON {
		return nil, 0, fmt.Errorf("ckpt: config section length %d is implausible", cfgLen)
	}
	cfgJSON := make([]byte, cfgLen)
	if _, err := io.ReadFull(cr, cfgJSON); err != nil {
		return nil, 0, err
	}
	if err := cr.section("config"); err != nil {
		return nil, 0, err
	}
	var cfg vit.Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, 0, err
	}
	if err := checkLoadable(cfg, budget, kind); err != nil {
		return nil, 0, err
	}
	m, err := vit.New(cfg, 0)
	if err != nil {
		return nil, 0, err
	}
	var count uint32
	if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
		return nil, 0, err
	}
	params := m.Params()
	if int(count) != len(params) {
		return nil, 0, fmt.Errorf("ckpt: %d stored params, model has %d", count, len(params))
	}
	for _, p := range params {
		if err := readParam(cr, p, qout); err != nil {
			return nil, 0, fmt.Errorf("ckpt: reading %s: %w", p.Name, err)
		}
		if err := cr.section(p.Name); err != nil {
			return nil, 0, err
		}
	}
	return m, kind, nil
}

func readParam(r io.Reader, p *nn.Param, qout map[string]*quant.Quantized) error {
	var nameLen uint16
	if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
		return err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return err
	}
	if string(name) != p.Name {
		return fmt.Errorf("parameter order mismatch: stored %q, expected %q", name, p.Name)
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if int(n) != p.W.Len() {
		return fmt.Errorf("size mismatch: stored %d, expected %d", n, p.W.Len())
	}
	var dt uint8
	if err := binary.Read(r, binary.LittleEndian, &dt); err != nil {
		return err
	}
	data := p.W.Data()
	switch dt {
	case dtypeBF16:
		buf := make([]byte, 2*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		for i := range data {
			data[i] = bf16.BF16(binary.LittleEndian.Uint16(buf[2*i:])).Float32()
		}
	case dtypeF32:
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	case dtypeI8, dtypeQ4:
		if err := readQuantParam(r, p, dt, qout); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown dtype %d", dt)
	}
	p.W.Bump()
	return nil
}
