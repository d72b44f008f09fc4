package ckpt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"orbit/internal/bf16"
	"orbit/internal/vit"
)

// TrainMeta carries the scalar training state of a checkpoint: the
// counters and streams that, together with weights and optimizer
// moments, make a resumed run bit-identical to an uninterrupted one.
type TrainMeta struct {
	// Step is the number of completed optimizer-schedule steps.
	Step int `json:"step"`
	// Samples is the cumulative number of training samples consumed.
	Samples int `json:"samples"`
	// OptStep is the optimizer's internal step counter (Adam bias
	// correction); it lags Step when the grad scaler skipped steps.
	OptStep int `json:"opt_step"`
	// DataIndex is the position in the shuffled data order (the order
	// itself is a pure function of the training seed and data length,
	// so the position is the whole data-stream state; the sharded
	// distributed format checkpoints a live RNG stream in its Manifest
	// instead).
	DataIndex int `json:"data_index"`
	// Scaler is the dynamic loss-scaler state (mixed precision only).
	Scaler *bf16.ScalerState `json:"scaler,omitempty"`
}

// TrainState is a full training-state checkpoint: the model, the AdamW
// moments aligned with Model.Params(), and the scalar meta state.
type TrainState struct {
	Model      *vit.Model
	OptM, OptV [][]float32
	Meta       TrainMeta
}

// SaveTrainState writes a version-3 training-state checkpoint. With
// half=true the weights are stored bfloat16; optimizer moments are
// always stored float32 (their low bits steer Adam's denominator, so
// truncating them breaks bit-identical resume). The write is atomic:
// a crash mid-save — the exact failure this subsystem exists for —
// never destroys the previous checkpoint at the same path.
func SaveTrainState(path string, st *TrainState, half bool) error {
	if len(st.OptM) != len(st.Model.Params()) || len(st.OptV) != len(st.Model.Params()) {
		return fmt.Errorf("ckpt: %d/%d moment slices for %d params",
			len(st.OptM), len(st.OptV), len(st.Model.Params()))
	}
	return atomicWrite(path, func(w io.Writer) error {
		cw := newCRCWriter(w)
		if err := writeModel(cw, st.Model, kindTrain, floatDtype(half)); err != nil {
			return err
		}
		metaJSON, err := json.Marshal(st.Meta)
		if err != nil {
			return err
		}
		if err := binary.Write(cw, binary.LittleEndian, uint32(len(metaJSON))); err != nil {
			return err
		}
		if _, err := cw.Write(metaJSON); err != nil {
			return err
		}
		if err := cw.section(); err != nil {
			return err
		}
		for i := range st.OptM {
			if err := writeF32Section(cw, st.OptM[i]); err != nil {
				return err
			}
			if err := cw.section(); err != nil {
				return err
			}
			if err := writeF32Section(cw, st.OptV[i]); err != nil {
				return err
			}
			if err := cw.section(); err != nil {
				return err
			}
		}
		return nil
	})
}

// LoadTrainState reads a training-state checkpoint written by
// SaveTrainState. Section checksums are verified before
// deserializing; structural or checksum failures come back as a
// *CorruptError. Passing a weights-only checkpoint is a usage error,
// not corruption, and stays a plain error.
func LoadTrainState(path string) (*TrainState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := newCRCReader(bufio.NewReader(f), path)
	m, kind, err := read(cr, fileBudget(f), nil)
	if err != nil {
		return nil, corruptAt(path, err)
	}
	if kind != kindTrain {
		return nil, fmt.Errorf("ckpt: %s is a weights-only checkpoint, not a training state", path)
	}
	st := &TrainState{Model: m}
	var metaLen uint32
	if err := binary.Read(cr, binary.LittleEndian, &metaLen); err != nil {
		return nil, corruptAt(path, fmt.Errorf("ckpt: truncated training meta: %w", err))
	}
	if metaLen > maxConfigJSON {
		return nil, corruptAt(path, fmt.Errorf("ckpt: training meta length %d is implausible", metaLen))
	}
	metaJSON := make([]byte, metaLen)
	if _, err := io.ReadFull(cr, metaJSON); err != nil {
		return nil, corruptAt(path, fmt.Errorf("ckpt: truncated training meta: %w", err))
	}
	if err := cr.section("train meta"); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(metaJSON, &st.Meta); err != nil {
		return nil, corruptAt(path, err)
	}
	params := m.Params()
	for i, p := range params {
		mBuf, err := readF32Section(cr, p.W.Len())
		if err != nil {
			return nil, corruptAt(path, fmt.Errorf("ckpt: reading moment m[%d]: %w", i, err))
		}
		if err := cr.section(fmt.Sprintf("moment m[%d]", i)); err != nil {
			return nil, err
		}
		vBuf, err := readF32Section(cr, p.W.Len())
		if err != nil {
			return nil, corruptAt(path, fmt.Errorf("ckpt: reading moment v[%d]: %w", i, err))
		}
		if err := cr.section(fmt.Sprintf("moment v[%d]", i)); err != nil {
			return nil, err
		}
		st.OptM = append(st.OptM, mBuf)
		st.OptV = append(st.OptV, vBuf)
	}
	return st, nil
}

// writeF32Section emits a length-prefixed raw float32 array.
func writeF32Section(w io.Writer, data []float32) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(data))); err != nil {
		return err
	}
	buf := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

// maxSectionElems bounds a length prefix read from disk (512 Mi
// floats = 2 GiB): a corrupted prefix must produce an error, not an
// attempt to allocate 16 GiB before the truncation is noticed.
const maxSectionElems = 1 << 29

// readF32Section reads a length-prefixed float32 array, validating
// the length when want >= 0.
func readF32Section(r io.Reader, want int) ([]float32, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if want >= 0 && int(n) != want {
		return nil, fmt.Errorf("section length %d, want %d", n, want)
	}
	if n > maxSectionElems {
		return nil, fmt.Errorf("section length %d is implausible (corrupt length prefix?)", n)
	}
	out := make([]float32, n)
	// Chunked reads: a truncated file errors after at most one chunk
	// of scratch, not after materializing the whole claimed section.
	const chunk = 1 << 16
	buf := make([]byte, 4*min(int(n), chunk))
	for off := 0; off < int(n); off += chunk {
		m := min(int(n)-off, chunk)
		if _, err := io.ReadFull(r, buf[:4*m]); err != nil {
			return nil, err
		}
		for i := 0; i < m; i++ {
			out[off+i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	return out, nil
}
