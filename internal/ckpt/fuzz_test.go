package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"orbit/internal/nn"
	"orbit/internal/quant"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

// fuzzSeedModel builds a deterministic tiny checkpoint for seeding.
// Save writes the current container version, so this is a v3 file with
// per-section CRC32C trailers.
func fuzzSeedModel(f *testing.F) []byte {
	f.Helper()
	m, err := vit.New(vit.Tiny(2, 8, 8), 1)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	if err := Save(path, m, true); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// fuzzSeedTrainState builds a minimal v3 training-state checkpoint
// (kind byte 1, train-meta and per-parameter moment sections).
func fuzzSeedTrainState(f *testing.F) []byte {
	f.Helper()
	cfg := vit.Config{Name: "fuzz", Channels: 1, OutChannels: 1,
		Height: 2, Width: 2, Patch: 2, EmbedDim: 2, Layers: 1, Heads: 1}
	m, err := vit.New(cfg, 1)
	if err != nil {
		f.Fatal(err)
	}
	st := &TrainState{Model: m}
	for _, p := range m.Params() {
		st.OptM = append(st.OptM, make([]float32, p.W.Len()))
		st.OptV = append(st.OptV, make([]float32, p.W.Len()))
	}
	path := filepath.Join(f.TempDir(), "seed.state.ckpt")
	if err := SaveTrainState(path, st, false); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// fuzzSeedQuant builds a valid kindQuantWeights checkpoint whose
// EmbedDim spans a full quantization block, so the file carries real
// nibble-packed sections.
func fuzzSeedQuant(f *testing.F) []byte {
	f.Helper()
	m, err := vit.New(vit.Tiny(2, 8, 8), 1)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed.quant.ckpt")
	if err := SaveQuantized(path, m, quant.Q4_0); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// quantEvilSeeds hand-writes kindQuantWeights files whose section
// CRCs are VALID but whose quantized payloads are poisoned — NaN/Inf
// block scales, a declared geometry that disagrees with the
// parameter's tensor length, and scales truncated mid-section. These
// pierce past the checksum layer and regression-pin the semantic
// validation in readQuantParam/quant.FromParts: integrity checking
// alone would accept every one of them.
func quantEvilSeeds(f *testing.F) [][]byte {
	f.Helper()
	cfg := vit.Config{Name: "fuzz", Channels: 1, OutChannels: 1,
		Height: 2, Width: 2, Patch: 2, EmbedDim: 2, Layers: 1, Heads: 1}
	m, err := vit.New(cfg, 1)
	if err != nil {
		f.Fatal(err)
	}
	params := m.Params()
	target := -1
	for i, p := range params {
		if p.W.Rank() == 2 {
			target = i
			break
		}
	}
	if target < 0 {
		f.Fatal("fuzz config has no 2-D parameter")
	}
	// evil writes the quantized section body for p (after the shared
	// name/numel prefix) and reports whether to keep writing the rest of
	// the file.
	build := func(evil func(p *nn.Param, w io.Writer) bool) []byte {
		var buf bytes.Buffer
		cw := newCRCWriter(&buf)
		cw.Write([]byte(magic))
		binary.Write(cw, binary.LittleEndian, Version)
		binary.Write(cw, binary.LittleEndian, kindQuantWeights)
		cfgJSON, _ := json.Marshal(m.Config)
		binary.Write(cw, binary.LittleEndian, uint32(len(cfgJSON)))
		cw.Write(cfgJSON)
		cw.section()
		binary.Write(cw, binary.LittleEndian, uint32(len(params)))
		for i, p := range params {
			if i == target {
				name := []byte(p.Name)
				binary.Write(cw, binary.LittleEndian, uint16(len(name)))
				cw.Write(name)
				binary.Write(cw, binary.LittleEndian, uint32(p.W.Len()))
				binary.Write(cw, binary.LittleEndian, dtypeI8)
				if !evil(p, cw) {
					return buf.Bytes()
				}
			} else {
				writeParam(cw, p, dtypeF32)
			}
			cw.section()
		}
		return buf.Bytes()
	}
	geometry := func(w io.Writer, rows, cols int) {
		binary.Write(w, binary.LittleEndian, uint32(rows))
		binary.Write(w, binary.LittleEndian, uint32(cols))
	}
	poisonScale := func(bits uint32) []byte {
		return build(func(p *nn.Param, w io.Writer) bool {
			rows, cols := p.W.Dim(0), p.W.Dim(1)
			geometry(w, rows, cols)
			sb := make([]byte, 4*quant.ScalesLen(rows, cols))
			binary.LittleEndian.PutUint32(sb, bits)
			w.Write(sb)
			w.Write(make([]byte, quant.DataLen(quant.Int8, rows, cols)))
			return true
		})
	}
	return [][]byte{
		// Block scale NaN / +Inf with a valid section CRC.
		poisonScale(0x7fc00000),
		poisonScale(0x7f800000),
		// Declared geometry disagrees with the parameter's own shape
		// (block count vs tensor length mismatch).
		build(func(p *nn.Param, w io.Writer) bool {
			geometry(w, p.W.Dim(0)+1, p.W.Dim(1))
			rows, cols := p.W.Dim(0)+1, p.W.Dim(1)
			w.Write(make([]byte, 4*quant.ScalesLen(rows, cols)))
			w.Write(make([]byte, quant.DataLen(quant.Int8, rows, cols)))
			return true
		}),
		// File ends mid-way through the block scales.
		build(func(p *nn.Param, w io.Writer) bool {
			rows, cols := p.W.Dim(0), p.W.Dim(1)
			geometry(w, rows, cols)
			w.Write(make([]byte, 2*quant.ScalesLen(rows, cols)))
			return false
		}),
	}
}

// v3SectionSeeds derives the PR-7 integrity corpus from a valid v3
// file: truncations at section/CRC-trailer boundaries, flips inside
// the config-section CRC, flips in the final section CRC, and a
// version byte downgraded to 2.
func v3SectionSeeds(f *testing.F, valid []byte) [][]byte {
	f.Helper()
	// Header layout: magic(4) + version uint32(4) + kind(1) + cfgLen
	// uint32(4) + cfgJSON, then the config section's CRC32C trailer.
	if len(valid) < 17 || binary.LittleEndian.Uint32(valid[4:8]) < 3 {
		f.Fatalf("seed is not a v3 container (len %d)", len(valid))
	}
	cfgLen := int(binary.LittleEndian.Uint32(valid[9:13]))
	cfgCRC := 13 + cfgLen // config-section CRC32C trailer offset
	if cfgCRC+4 > len(valid) {
		f.Fatalf("config section (%d bytes) overruns the %d-byte seed", cfgLen, len(valid))
	}
	mut := func(off int, bit byte) []byte {
		b := append([]byte(nil), valid...)
		b[off] ^= bit
		return b
	}
	return [][]byte{
		valid[:cfgCRC],          // truncated before the config CRC
		valid[:cfgCRC+2],        // truncated inside the config CRC
		valid[:len(valid)-3],    // truncated inside the final section CRC
		mut(cfgCRC, 0x01),       // bit flip in the config CRC region
		mut(cfgCRC+3, 0x80),     //   "
		mut(len(valid)-1, 0x01), // bit flip in the final section CRC
		mut(len(valid)-4, 0xff), //   "
		mut(4, valid[4]^2),      // version byte says 2, CRC trailers still present
	}
}

// guardSeed is a FuzzLoadModel seed that pins one loader guard: name
// is its twin in testdata/fuzz/FuzzLoadModel, guard a fragment of the
// error that guard returns.
type guardSeed struct {
	name, guard string
	data        []byte
}

// guardSeeds are the headers that trip each config guard: the length
// cap (a prefix claiming 4 GiB, refused before any config byte is
// read), checkLoadable (a ~100B-parameter model) and Validate (zero
// patch, zero heads: the modulo panics it guards). Each config section
// carries a valid CRC32C, so the load gets past the checksum to the
// guard.
func guardSeeds() []guardSeed {
	header := func(cfg vit.Config) []byte {
		cj, _ := json.Marshal(cfg)
		var buf bytes.Buffer
		cw := newCRCWriter(&buf)
		cw.Write([]byte(magic))
		binary.Write(cw, binary.LittleEndian, Version)
		cw.Write([]byte{kindWeights})
		binary.Write(cw, binary.LittleEndian, uint32(len(cj)))
		cw.Write(cj)
		cw.section()
		return buf.Bytes()
	}
	return []guardSeed{
		{"huge_cfg_len", "config section length", []byte("ORBT\x03\x00\x00\x00\x00\xff\xff\xff\xff")},
		{"oom_cfg", "config declares", header(vit.Config{Name: "huge", Channels: 48, OutChannels: 48,
			Height: 128, Width: 256, Patch: 8, EmbedDim: 16384, Layers: 512, Heads: 64, QKNorm: true})},
		{"zero_patch_cfg", "bad grid", header(vit.Config{Channels: 1, OutChannels: 1, Height: 8, Width: 8, Patch: 0, EmbedDim: 8, Layers: 1, Heads: 2})},
		{"zero_heads_cfg", "bad transformer shape", header(vit.Config{Channels: 1, OutChannels: 1, Height: 8, Width: 8, Patch: 4, EmbedDim: 8, Layers: 1, Heads: 0})},
	}
}

// TestFuzzGuardSeeds: each committed guard seed equals its twin in
// guardSeeds, and loading it fails in the guard it pins, not at the
// header.
func TestFuzzGuardSeeds(t *testing.T) {
	for _, s := range guardSeeds() {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadModel", s.name))
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
		if data, err := strconv.Unquote(lit); err != nil || data != string(s.data) {
			t.Errorf("%s: committed seed differs from guardSeeds (%v)", s.name, err)
		}
		path := filepath.Join(t.TempDir(), s.name)
		if err := os.WriteFile(path, s.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Load(path)
		wantCorrupt(t, err, s.guard)
	}
}

// FuzzLoadModel feeds arbitrary bytes to the checkpoint file readers:
// truncated, bit-flipped, and adversarial-length inputs must produce
// errors — never a panic, and never an allocation the file's own size
// cannot justify. Found (and now regression-pinned by the seed
// corpus): modulo-by-zero panics in vit.Config.Validate for zero
// patch/head counts, and pre-guard OOMs where a crafted config section
// made the loader materialize a multi-gigabyte model from a
// kilobyte file.
func FuzzLoadModel(f *testing.F) {
	valid := fuzzSeedModel(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte("ORBT"))
	f.Add([]byte("NOPE\x02\x00\x00\x00"))
	for _, s := range guardSeeds() {
		f.Add(s.data)
	}
	// Bit flips across the valid checkpoint.
	for off := 0; off < len(valid); off += 37 {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x80
		f.Add(mut)
	}
	// v3 integrity corpus: section-boundary truncations and flips
	// inside the CRC32C trailers, for both checkpoint kinds. The seeds
	// with damaged CRC regions are the regression pin for the
	// fail-closed guarantee: a reader must never deserialize a section
	// whose trailer it cannot verify.
	for _, s := range v3SectionSeeds(f, valid) {
		f.Add(s)
	}
	state := fuzzSeedTrainState(f)
	f.Add(state)
	for _, s := range v3SectionSeeds(f, state) {
		f.Add(s)
	}
	// Kind byte flipped on a train-state file: the config-section CRC
	// covers the kind, so this must surface as corruption, not as a
	// "weights-only checkpoint" usage error.
	kindFlip := append([]byte(nil), state...)
	kindFlip[8] ^= 0x01
	f.Add(kindFlip)

	// Quantized-kind corpus: a valid Q4_0 checkpoint with the same
	// section-boundary truncations and CRC flips as the other kinds, a
	// bit-flip sweep across its scale/data sections, a train-state file
	// whose kind byte is flipped to kindQuantWeights (CRC-covered, so it
	// must read as corruption), and the CRC-valid poisoned payloads from
	// quantEvilSeeds.
	qseed := fuzzSeedQuant(f)
	f.Add(qseed)
	for _, s := range v3SectionSeeds(f, qseed) {
		f.Add(s)
	}
	for off := 0; off < len(qseed); off += 53 {
		mut := append([]byte(nil), qseed...)
		mut[off] ^= 0x80
		f.Add(mut)
	}
	f.Add(qseed[:len(qseed)*3/4])
	quantKindFlip := append([]byte(nil), state...)
	quantKindFlip[8] ^= kindTrain ^ kindQuantWeights
	f.Add(quantKindFlip)
	for _, s := range quantEvilSeeds(f) {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Both readers must fail closed on bad input.
		if m, err := Load(path); err == nil && m == nil {
			t.Fatal("Load returned nil model without error")
		}
		if st, err := LoadTrainState(path); err == nil && st == nil {
			t.Fatal("LoadTrainState returned nil state without error")
		}
	})
}

// fuzzSeedManifest builds a valid (if shard-less-loadable) manifest.
func fuzzSeedManifest(f *testing.F) []byte {
	f.Helper()
	man := Manifest{
		Version:     int(Version),
		Layout:      ShardLayout{TP: 1, FSDP: 2, DDP: 1},
		FlatLens:    []int{64, 64},
		Step:        3,
		OptStep:     3,
		GlobalBatch: 4,
		RNG:         tensor.NewRNG(1).State(),
		Shards:      []string{"shard-s3-t0-f0.bin", "shard-s3-t0-f1.bin"},
	}
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzLoadManifest feeds arbitrary bytes to the sharded-checkpoint
// loader twice over: once as the manifest itself and once as a shard
// file named by a valid manifest. Corrupt layouts (zero or negative
// extents, traversal shard names like "../../secret", implausible
// flat lengths) must error without panicking or escaping the
// checkpoint directory.
func FuzzLoadManifest(f *testing.F) {
	valid := fuzzSeedManifest(f)
	f.Add(valid)
	f.Add([]byte("{}"))
	f.Add([]byte("{"))
	f.Add([]byte(`{"version":3,"layout":{"tp":-1,"fsdp":-1,"ddp":1},"flat_lens":[1],"shards":["x"]}`))
	f.Add([]byte(`{"version":3,"layout":{"tp":1,"fsdp":1,"ddp":1},"flat_lens":[1],"shards":["../../etc/passwd"]}`))
	f.Add([]byte(`{"version":3,"layout":{"tp":70000,"fsdp":70000,"ddp":1},"flat_lens":[1],"shards":[]}`))
	f.Add([]byte(`{"version":3,"layout":{"tp":1,"fsdp":1,"ddp":1},"flat_lens":[99999999999],"shards":["s.bin"]}`))
	f.Add([]byte("ORBS\x02\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff"))
	// PR-7 digest seeds: manifests carrying shard_crcs that cannot
	// match (wrong digest, wrong count, absurd values).
	f.Add([]byte(`{"version":3,"layout":{"tp":1,"fsdp":1,"ddp":1},"flat_lens":[8],"shards":["shard-s1-t0-f0.bin"],"shard_crcs":[3735928559]}`))
	f.Add([]byte(`{"version":3,"layout":{"tp":1,"fsdp":2,"ddp":1},"flat_lens":[8,8],"shards":["shard-s1-t0-f0.bin","shard-s1-t0-f1.bin"],"shard_crcs":[1]}`))
	f.Add([]byte(`{"version":3,"layout":{"tp":1,"fsdp":1,"ddp":1},"flat_lens":[8],"shards":["shard-s1-t0-f0.bin"],"shard_crcs":[4294967295,0,1]}`))
	// PR-10 stage-coordinate seeds: manifests whose stage_blocks ranges
	// cannot address the block list (out of range, overlapping, gapped,
	// empty stage, wrong count, implausible stage extent).
	f.Add([]byte(`{"version":3,"layout":{"tp":1,"pp":2,"fsdp":1,"ddp":1},"flat_lens":[8,8],"stage_blocks":[[0,1],[1,5]],"shards":["shard-s1-p0-t0-f0.bin","shard-s1-p1-t0-f0.bin"]}`))
	f.Add([]byte(`{"version":3,"layout":{"tp":1,"pp":2,"fsdp":1,"ddp":1},"flat_lens":[8,8,8],"stage_blocks":[[0,2],[1,3]],"shards":["shard-s1-p0-t0-f0.bin","shard-s1-p1-t0-f0.bin"]}`))
	f.Add([]byte(`{"version":3,"layout":{"tp":1,"pp":2,"fsdp":1,"ddp":1},"flat_lens":[8,8,8],"stage_blocks":[[0,1],[2,3]],"shards":["shard-s1-p0-t0-f0.bin","shard-s1-p1-t0-f0.bin"]}`))
	f.Add([]byte(`{"version":3,"layout":{"tp":1,"pp":2,"fsdp":1,"ddp":1},"flat_lens":[8,8],"stage_blocks":[[0,2],[2,2]],"shards":["shard-s1-p0-t0-f0.bin","shard-s1-p1-t0-f0.bin"]}`))
	f.Add([]byte(`{"version":3,"layout":{"tp":1,"pp":2,"fsdp":1,"ddp":1},"flat_lens":[8,8],"stage_blocks":[[0,2]],"shards":["shard-s1-p0-t0-f0.bin","shard-s1-p1-t0-f0.bin"]}`))
	f.Add([]byte(`{"version":3,"layout":{"tp":1,"pp":70000,"fsdp":1,"ddp":1},"flat_lens":[8],"shards":[]}`))
	f.Add([]byte(`{"version":3,"layout":{"tp":1,"pp":-1,"fsdp":1,"ddp":1},"flat_lens":[8],"shards":["shard-s1-t0-f0.bin"]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Scenario 1: the bytes are the manifest.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		man, shards, err := loadShardedFrom(dir, ManifestName)
		if err == nil {
			// A manifest only loads when every declared shard resolved
			// inside the directory.
			if len(shards) != man.Layout.Stages()*man.Layout.TP*man.Layout.FSDP {
				t.Fatalf("loaded %d shards for %dx%dx%d grid", len(shards), man.Layout.Stages(), man.Layout.TP, man.Layout.FSDP)
			}
		}

		// Scenario 2: a valid manifest referencing the bytes as its
		// single shard file.
		dir2 := t.TempDir()
		man2 := Manifest{
			Version:  int(Version),
			Layout:   ShardLayout{TP: 1, FSDP: 1, DDP: 1},
			FlatLens: []int{8},
			Step:     1,
			Shards:   []string{"shard-s1-t0-f0.bin"},
			// The bytes' true digest, so they reach readShard.
			ShardCRCs: []uint32{crc32.Checksum(data, castagnoli)},
		}
		mj, _ := json.Marshal(man2)
		if err := os.WriteFile(filepath.Join(dir2, ManifestName), mj, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, "shard-s1-t0-f0.bin"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _ = loadShardedFrom(dir2, ManifestName) // must not panic

		// Scenario 3: the same shard bytes behind a manifest whose
		// digest is guaranteed wrong (the file's real CRC32C, inverted).
		// Verification runs before shard parsing, so NO input may load —
		// and the failure must be the typed corruption error.
		dir3 := t.TempDir()
		man3 := man2
		man3.ShardCRCs = []uint32{^crc32.Checksum(data, castagnoli)}
		mj3, _ := json.Marshal(man3)
		if err := os.WriteFile(filepath.Join(dir3, ManifestName), mj3, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir3, "shard-s1-t0-f0.bin"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var corrupt *CorruptError
		if _, _, err := loadShardedFrom(dir3, ManifestName); err == nil {
			t.Fatal("digest-mismatched shard loaded")
		} else if !errors.As(err, &corrupt) {
			t.Fatalf("digest mismatch produced %T, want *CorruptError: %v", err, err)
		}
	})
}
