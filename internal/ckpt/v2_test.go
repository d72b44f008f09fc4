package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"orbit/internal/bf16"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

// writeV1 and writeV2 emit the exact version-1 (no kind byte) and
// version-2 (a kind byte, no section checksums) on-disk formats, so
// the rejection is pinned against real bytes rather than against the
// current writer.
func writeV1(t *testing.T, path string, m *vit.Model) { writeOld(t, path, m, 1) }
func writeV2(t *testing.T, path string, m *vit.Model) { writeOld(t, path, m, 2) }

func writeOld(t *testing.T, path string, m *vit.Model, ver uint32) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	binary.Write(&buf, binary.LittleEndian, ver)
	if ver == 2 {
		buf.WriteByte(kindWeights)
	}
	cfgJSON, err := json.Marshal(m.Config)
	if err != nil {
		t.Fatal(err)
	}
	binary.Write(&buf, binary.LittleEndian, uint32(len(cfgJSON)))
	buf.Write(cfgJSON)
	params := m.Params()
	binary.Write(&buf, binary.LittleEndian, uint32(len(params)))
	for _, p := range params {
		if err := writeParam(&buf, p, dtypeF32); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadVersion1BackwardCompat pins where backward compatibility
// ends: the readers accept only Version, so a version-1 file is a
// *CorruptError naming the version, never a misread model.
func TestLoadVersion1BackwardCompat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.orbt")
	m, _ := vit.New(vit.Tiny(2, 8, 8), 1)
	writeV1(t, path, m)
	_, err := Load(path)
	wantCorrupt(t, err, "unsupported version 1")
}

// TestLoadVersion2BackwardCompat: a version-2 file and a version-2
// shard behind a valid digest are each a *CorruptError naming the
// version.
func TestLoadVersion2BackwardCompat(t *testing.T) {
	dir := t.TempDir()
	m, _ := vit.New(vit.Tiny(2, 8, 8), 1)
	writeV2(t, filepath.Join(dir, "v2.orbt"), m)
	_, err := Load(filepath.Join(dir, "v2.orbt"))
	wantCorrupt(t, err, "unsupported version 2")
	man, shards := buildShards(1, 1, []int{8})
	if err := SaveShardedKeep(dir, man, shards, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, man.Shards[0])
	data, _ := os.ReadFile(path)
	binary.LittleEndian.PutUint32(data[4:], 2)
	man.ShardCRCs[0] = crc32.Checksum(data, castagnoli)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, man, ManifestName); err != nil {
		t.Fatal(err)
	}
	_, _, err = loadShardedFrom(dir, ManifestName)
	wantCorrupt(t, err, "unsupported shard version 2")
}

func TestSaveWritesVersion3(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.orbt")
	m, _ := vit.New(vit.Tiny(2, 8, 8), 1)
	if err := Save(path, m, false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(raw[4:8]); got != 3 {
		t.Errorf("stored version %d, want 3", got)
	}
	if raw[8] != kindWeights {
		t.Errorf("stored kind %d, want weights-only", raw[8])
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.orbt")
	m, _ := vit.New(vit.Tiny(2, 8, 8), 1)
	if err := Save(path, m, false); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	binary.LittleEndian.PutUint32(raw[4:8], 99)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	wantCorrupt(t, err, "unsupported version 99")
}

// --- bf16 dtype edge cases -------------------------------------------

// TestBF16EdgeValuesRoundTrip drives NaN, ±Inf, denormals, and
// boundary magnitudes through a dtypeBF16 save/load cycle. The
// contract is bf16.Round semantics: specials survive, float32
// denormals flush through bf16's narrower mantissa.
func TestBF16EdgeValuesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edge.orbt")
	m, err := vit.New(vit.Tiny(2, 8, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	denorm := math.Float32frombits(0x0000_0001)   // smallest f32 subnormal
	bf16Sub := math.Float32frombits(0x0001 << 16) // smallest bf16 subnormal
	big := float32(bf16.MaxValue)                 // largest finite bf16
	tiny := float32(bf16.SmallestNormal)          // smallest normal bf16
	edge := []float32{nan, inf, -inf, denorm, -denorm, bf16Sub, big, -big, tiny, 0, -1.5, 3.25}
	w := m.Params()[0].W.Data()
	copy(w, edge)

	if err := Save(path, m, true); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Params()[0].W.Data()
	for i, want := range edge {
		wantRounded := bf16.Round(want)
		g := got[i]
		switch {
		case math.IsNaN(float64(wantRounded)):
			if !math.IsNaN(float64(g)) {
				t.Errorf("elem %d: NaN became %v", i, g)
			}
		default:
			if g != wantRounded {
				t.Errorf("elem %d: %v round-tripped to %v, want %v", i, want, g, wantRounded)
			}
		}
	}
	// Spot-check the interesting ones explicitly.
	if !math.IsInf(float64(got[1]), 1) || !math.IsInf(float64(got[2]), -1) {
		t.Error("±Inf did not survive the bf16 round trip")
	}
	if got[5] != bf16Sub {
		t.Errorf("bf16 subnormal %v became %v", bf16Sub, got[5])
	}
	if got[6] != big {
		t.Errorf("bf16 max %v became %v", big, got[6])
	}
}

// --- corruption / truncation error paths -----------------------------

func TestLoadCorruptedMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.orbt")
	m, _ := vit.New(vit.Tiny(2, 8, 8), 1)
	if err := Save(path, m, false); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	copy(raw, "XXXX")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("expected error for corrupted magic")
	}
}

func TestLoadTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.orbt")
	m, _ := vit.New(vit.Tiny(2, 8, 8), 1)
	if err := Save(path, m, true); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	// Truncate at several depths: inside the header, inside the config,
	// and mid-parameter-data. Every cut must produce an error, never a
	// silent partial model.
	for _, cut := range []int{2, 6, 9, 30, len(raw) / 2, len(raw) - 3} {
		trunc := filepath.Join(dir, "trunc.orbt")
		if err := os.WriteFile(trunc, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(trunc); err == nil {
			t.Errorf("expected error for file truncated at %d/%d bytes", cut, len(raw))
		}
	}
}

func TestLoadTrainStateRejectsWeightsOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.orbt")
	m, _ := vit.New(vit.Tiny(2, 8, 8), 1)
	if err := Save(path, m, false); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrainState(path); err == nil {
		t.Error("expected error loading a weights-only file as training state")
	}
}

// --- training-state round trip ---------------------------------------

func TestTrainStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "train.orbt")
	m, err := vit.New(vit.Tiny(2, 8, 8), 9)
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	st := &TrainState{Model: m}
	rng := tensor.NewRNG(11)
	for _, p := range params {
		mm := make([]float32, p.W.Len())
		vv := make([]float32, p.W.Len())
		for i := range mm {
			mm[i] = float32(rng.Norm())
			vv[i] = float32(rng.Float64())
		}
		st.OptM = append(st.OptM, mm)
		st.OptV = append(st.OptV, vv)
	}
	st.Meta = TrainMeta{
		Step: 17, Samples: 68, OptStep: 15, DataIndex: 68,
		Scaler: &bf16.ScalerState{Scale: 32768, GoodSteps: 3, SkippedSteps: 1, TotalSteps: 18},
	}

	if err := SaveTrainState(path, st, false); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTrainState(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta != st.Meta {
		if *back.Meta.Scaler != *st.Meta.Scaler {
			t.Errorf("scaler state mismatch: %+v vs %+v", back.Meta.Scaler, st.Meta.Scaler)
		}
		back.Meta.Scaler, st.Meta.Scaler = nil, nil
		if back.Meta != st.Meta {
			t.Errorf("meta mismatch: %+v vs %+v", back.Meta, st.Meta)
		}
	}
	for i := range params {
		for j := range st.OptM[i] {
			if back.OptM[i][j] != st.OptM[i][j] || back.OptV[i][j] != st.OptV[i][j] {
				t.Fatalf("moment %d[%d] mismatch", i, j)
			}
		}
		for j, w := range params[i].W.Data() {
			if back.Model.Params()[i].W.Data()[j] != w {
				t.Fatalf("weight %d[%d] mismatch", i, j)
			}
		}
	}
	// Load() on a training-state file returns just the model.
	weightsOnly, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if weightsOnly.Config != m.Config {
		t.Error("Load of a train-state file lost the config")
	}
}
