package ckpt

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orbit/internal/vit"
)

// tinyTrainState builds the smallest legal training state, so the
// exhaustive bit-flip sweep stays cheap (the file is a few KB).
func tinyTrainState(t *testing.T) *TrainState {
	t.Helper()
	cfg := vit.Config{
		Name: "sweep", Channels: 1, OutChannels: 1,
		Height: 2, Width: 2, Patch: 2,
		EmbedDim: 2, Layers: 1, Heads: 1,
	}
	m, err := vit.New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	st := &TrainState{Model: m, Meta: TrainMeta{Step: 3, Samples: 12, OptStep: 3, DataIndex: 12}}
	for i, p := range m.Params() {
		mm := make([]float32, p.W.Len())
		vv := make([]float32, p.W.Len())
		for j := range mm {
			mm[j] = float32(i) + 0.25
			vv[j] = float32(j) + 0.5
		}
		st.OptM = append(st.OptM, mm)
		st.OptV = append(st.OptV, vv)
	}
	return st
}

// TestBitFlipSweepTrainState is the integrity acceptance test for the
// single-file format: flip a bit at EVERY byte offset of a version-3
// training-state checkpoint and require that loading the mutated file
// always fails with a typed *CorruptError — never a nil error
// (silently-wrong weights) and never a panic. Two masks: a low bit
// (subtle flip) and 0xFF (burst).
func TestBitFlipSweepTrainState(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "state.orbt")
	if err := SaveTrainState(good, tinyTrainState(t), false); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrainState(good); err != nil {
		t.Fatalf("pristine checkpoint does not load: %v", err)
	}
	mut := filepath.Join(dir, "mut.orbt")
	for _, mask := range []byte{0x01, 0xFF} {
		for i := range orig {
			data := append([]byte(nil), orig...)
			data[i] ^= mask
			if err := os.WriteFile(mut, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadTrainState(mut)
			if err == nil {
				t.Fatalf("byte %d ^ %#x: corrupted checkpoint loaded without error", i, mask)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("byte %d ^ %#x: got %T (%v), want *CorruptError", i, mask, err, err)
			}
		}
	}
}

// TestBitFlipSweepShardFile does the same sweep over a shard binary:
// the manifest's whole-file CRC32C digest must catch every flip before
// any shard byte is deserialized.
func TestBitFlipSweepShardFile(t *testing.T) {
	dir := t.TempDir()
	man, shards := buildShards(1, 1, []int{8, 6})
	if err := SaveShardedKeep(dir, man, shards, 1); err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(dir, ShardFileName(man.Step, 0, 0, 0))
	orig, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		data := append([]byte(nil), orig...)
		data[i] ^= 0xFF
		if err := os.WriteFile(shardPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := loadShardedFrom(dir, ManifestName)
		if err == nil {
			t.Fatalf("shard byte %d: corrupted shard loaded without error", i)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("shard byte %d: got %T (%v), want *CorruptError", i, err, err)
		}
	}
	if err := os.WriteFile(shardPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadShardedFrom(dir, ManifestName); err != nil {
		t.Fatalf("restored shard does not load: %v", err)
	}
}

// TestManifestCorruptionDetected covers the manifest JSON, which the
// byte sweep does not target exhaustively: truncation, a wrong shard
// digest, and a missing shard file must each surface as *CorruptError.
func TestManifestCorruptionDetected(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		man, shards := buildShards(1, 2, []int{8})
		if err := SaveShardedKeep(dir, man, shards, 1); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	load := func(dir string) error {
		_, _, err := loadShardedFrom(dir, ManifestName)
		return err
	}

	t.Run("truncated manifest", func(t *testing.T) {
		dir := build(t)
		p := filepath.Join(dir, ManifestName)
		data, _ := os.ReadFile(p)
		if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		wantCorrupt(t, load(dir), "")
	})
	t.Run("wrong shard digest", func(t *testing.T) {
		dir := build(t)
		p := filepath.Join(dir, ManifestName)
		data, _ := os.ReadFile(p)
		var man Manifest
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatal(err)
		}
		man.ShardCRCs[0] ^= 1
		out, _ := json.Marshal(&man)
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		wantCorrupt(t, load(dir), "")
	})
	t.Run("missing shard file", func(t *testing.T) {
		dir := build(t)
		var man Manifest
		data, _ := os.ReadFile(filepath.Join(dir, ManifestName))
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, man.Shards[1])); err != nil {
			t.Fatal(err)
		}
		wantCorrupt(t, load(dir), "")
	})
}

// TestManifestWithoutDigestsRejected: a manifest must carry the
// current version and one digest per shard. Stripping the digests —
// also behind a version downgraded to 2 — must not let a flipped shard
// byte load as silently wrong moments.
func TestManifestWithoutDigestsRejected(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version int
	}{{"stripped digests", int(Version)}, {"v2 stripped digests", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			man, shards := buildShards(1, 2, []int{8})
			if err := SaveShardedKeep(dir, man, shards, 1); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{ManifestName, GenManifestName(man.Step)} {
				var m Manifest
				data, _ := os.ReadFile(filepath.Join(dir, name))
				if err := json.Unmarshal(data, &m); err != nil {
					t.Fatal(err)
				}
				m.Version, m.ShardCRCs = tc.version, nil
				out, _ := json.Marshal(&m)
				if err := os.WriteFile(filepath.Join(dir, name), out, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			shard := filepath.Join(dir, man.Shards[0])
			data, _ := os.ReadFile(shard)
			data[len(data)-1] ^= 0x10 // a byte of the last moment value
			if err := os.WriteFile(shard, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, err := LoadShardedLatestValid(dir)
			wantCorrupt(t, err, "")
		})
	}
}

// TestShortShardChunkRejected: a chunk shorter than the manifest's flat
// length implies, behind valid digests, is a corrupt checkpoint — an
// error at load, not a panic in core.Engine.ImportChunks on resume.
func TestShortShardChunkRejected(t *testing.T) {
	dir := t.TempDir()
	man, shards := buildShards(1, 2, []int{8, 6})
	blk := &shards[0].Blocks[0]
	blk.W, blk.M, blk.V = blk.W[1:], blk.M[1:], blk.V[1:]
	if err := SaveShardedKeep(dir, man, shards, 1); err != nil {
		t.Fatal(err)
	}
	_, _, err := loadShardedFrom(dir, ManifestName)
	wantCorrupt(t, err, "chunk length")
}

// wantCorrupt fails the test unless err is a *CorruptError whose
// message holds msg.
func wantCorrupt(t *testing.T, err error, msg string) {
	t.Helper()
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(err.Error(), msg) {
		t.Errorf("got %T (%v), want a *CorruptError with %q", err, err, msg)
	}
}

func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off%len(data)] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSaveTrainStateRetainedRing(t *testing.T) {
	base := filepath.Join(t.TempDir(), "state.orbt")
	st := tinyTrainState(t)
	for step := 1; step <= 4; step++ {
		st.Meta.Step = step
		if err := SaveTrainStateRetained(base, st, false, 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, gone := range []int{1, 2} {
		if _, err := os.Stat(stateGenPath(base, gone)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("generation %d not pruned (keep=2)", gone)
		}
	}
	for _, kept := range []int{3, 4} {
		if _, err := os.Stat(stateGenPath(base, kept)); err != nil {
			t.Errorf("generation %d missing: %v", kept, err)
		}
	}
	got, err := LoadTrainState(base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Step != 4 {
		t.Fatalf("base pointer holds step %d, want 4", got.Meta.Step)
	}
}

func TestLoadLatestValidStateQuarantinesCorrupt(t *testing.T) {
	base := filepath.Join(t.TempDir(), "state.orbt")
	st := tinyTrainState(t)
	for step := 1; step <= 2; step++ {
		st.Meta.Step = step
		if err := SaveTrainStateRetained(base, st, false, 2); err != nil {
			t.Fatal(err)
		}
	}
	flipByte(t, stateGenPath(base, 2), 900)
	got, path, quarantined, err := LoadLatestValidState(base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Step != 1 || path != stateGenPath(base, 1) {
		t.Fatalf("loaded step %d from %s, want step 1 from generation 1", got.Meta.Step, path)
	}
	if len(quarantined) != 1 || quarantined[0] != stateGenPath(base, 2) {
		t.Fatalf("quarantined = %v, want exactly generation 2", quarantined)
	}
	if _, err := os.Stat(stateGenPath(base, 2) + quarantineSuffix); err != nil {
		t.Fatalf("corrupt generation not renamed aside: %v", err)
	}
}

func TestLoadLatestValidStateFallsBackToBase(t *testing.T) {
	// A SaveTrainState save (what -keep 0 writes): only the base file,
	// no generation ring.
	base := filepath.Join(t.TempDir(), "state.orbt")
	st := tinyTrainState(t)
	if err := SaveTrainState(base, st, false); err != nil {
		t.Fatal(err)
	}
	got, path, quarantined, err := LoadLatestValidState(base)
	if err != nil {
		t.Fatal(err)
	}
	if path != base || got.Meta.Step != st.Meta.Step || len(quarantined) != 0 {
		t.Fatalf("base fallback: path=%s step=%d quarantined=%v", path, got.Meta.Step, quarantined)
	}
}

// TestGenerationRingsIgnoreGlobMetacharacters: the rings list their
// directory instead of globbing, so a '[' in the checkpoint path
// neither stops pruning nor hides the valid generations, and a
// generation manifest spelled manifest-s05.json loads under its own
// name.
func TestGenerationRingsIgnoreGlobMetacharacters(t *testing.T) {
	root := t.TempDir()
	base := filepath.Join(root, "run[1].orbt")
	st := tinyTrainState(t)
	for step := 1; step <= 4; step++ {
		st.Meta.Step = step
		if err := SaveTrainStateRetained(base, st, false, 2); err != nil {
			t.Fatal(err)
		}
	}
	if ents, _ := os.ReadDir(root); len(ents) != 3 {
		t.Errorf("%d files beside %s, want the base and two generations", len(ents), base)
	}
	flipByte(t, base, 900)
	flipByte(t, stateGenPath(base, 4), 900)
	if got, path, _, err := LoadLatestValidState(base); err != nil || path != stateGenPath(base, 3) {
		t.Fatalf("loaded %v from %s (%v), want generation 3", got, path, err)
	}
	for _, dir := range []string{filepath.Join(root, "ck[1]"), filepath.Join(root, "ck")} {
		man, shards := buildShards(1, 2, []int{8})
		for step := 2; step <= 5; step++ {
			man.Step = step
			if err := SaveShardedKeep(dir, man, shards, 2); err != nil {
				t.Fatal(err)
			}
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 7 {
			t.Errorf("%s holds %d files, want 7 (two generations of a manifest and two shards, and manifest.json)", dir, len(ents))
		}
		if err := os.Rename(filepath.Join(dir, GenManifestName(5)), filepath.Join(dir, "manifest-s05.json")); err != nil {
			t.Fatal(err)
		}
		if got, _, _, err := LoadShardedLatestValid(dir); err != nil || got.Step != 5 {
			t.Fatalf("%s: loaded %v (%v), want step 5", dir, got, err)
		}
	}
}

func TestLoadLatestValidStateAllCorrupt(t *testing.T) {
	base := filepath.Join(t.TempDir(), "state.orbt")
	st := tinyTrainState(t)
	for step := 1; step <= 2; step++ {
		st.Meta.Step = step
		if err := SaveTrainStateRetained(base, st, false, 2); err != nil {
			t.Fatal(err)
		}
	}
	flipByte(t, stateGenPath(base, 1), 512)
	flipByte(t, stateGenPath(base, 2), 512)
	flipByte(t, base, 512)
	_, _, quarantined, err := LoadLatestValidState(base)
	wantCorrupt(t, err, "no valid checkpoint generation")
	if len(quarantined) != 3 {
		t.Fatalf("quarantined %d candidates, want 3: %v", len(quarantined), quarantined)
	}
}

func TestLoadLatestValidStateNoCheckpoint(t *testing.T) {
	base := filepath.Join(t.TempDir(), "state.orbt")
	_, _, _, err := LoadLatestValidState(base)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("got %v, want os.ErrNotExist", err)
	}
}

func TestLoadLatestValidStateUsageErrorNotQuarantined(t *testing.T) {
	// A weights-only file at the base path is a usage error, not
	// corruption: it must abort immediately and must NOT be renamed.
	base := filepath.Join(t.TempDir(), "state.orbt")
	if err := Save(base, tinyTrainState(t).Model, false); err != nil {
		t.Fatal(err)
	}
	_, _, quarantined, err := LoadLatestValidState(base)
	if err == nil {
		t.Fatal("expected a usage error for a weights-only file")
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		t.Fatalf("usage error misclassified as corruption: %v", err)
	}
	if len(quarantined) != 0 {
		t.Fatalf("usage error quarantined files: %v", quarantined)
	}
	if _, statErr := os.Stat(base); statErr != nil {
		t.Fatalf("base file was renamed on a usage error: %v", statErr)
	}
}

func TestSaveShardedKeepRetainsGenerations(t *testing.T) {
	dir := t.TempDir()
	man, shards := buildShards(1, 2, []int{8})
	for _, step := range []int{2, 4, 6} {
		man.Step = step
		if err := SaveShardedKeep(dir, man, shards, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, GenManifestName(2))); !errors.Is(err, os.ErrNotExist) {
		t.Error("generation s2 manifest not pruned (keep=2)")
	}
	if _, err := os.Stat(filepath.Join(dir, ShardFileName(2, 0, 0, 0))); !errors.Is(err, os.ErrNotExist) {
		t.Error("generation s2 shard files not pruned")
	}
	for _, step := range []int{4, 6} {
		if _, err := os.Stat(filepath.Join(dir, GenManifestName(step))); err != nil {
			t.Errorf("generation s%d manifest missing: %v", step, err)
		}
		if _, err := os.Stat(filepath.Join(dir, ShardFileName(step, 0, 0, 1))); err != nil {
			t.Errorf("generation s%d shards missing: %v", step, err)
		}
	}
	got, _, err := loadShardedFrom(dir, ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 6 {
		t.Fatalf("commit pointer at step %d, want 6", got.Step)
	}
}

func TestLoadShardedLatestValidFallsBack(t *testing.T) {
	dir := t.TempDir()
	man, shards := buildShards(1, 2, []int{8})
	for _, step := range []int{2, 4} {
		man.Step = step
		if err := SaveShardedKeep(dir, man, shards, 2); err != nil {
			t.Fatal(err)
		}
	}
	flipByte(t, filepath.Join(dir, ShardFileName(4, 0, 0, 0)), 40)
	got, _, quarantined, err := LoadShardedLatestValid(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 2 {
		t.Fatalf("fell back to step %d, want 2", got.Step)
	}
	if len(quarantined) != 1 {
		t.Fatalf("quarantined = %v, want exactly generation s4", quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, GenManifestName(4)) + quarantineSuffix); err != nil {
		t.Fatalf("corrupt generation manifest not renamed aside: %v", err)
	}
	// The commit pointer was repaired: a plain load now sees step 2.
	repaired, _, err := loadShardedFrom(dir, ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Step != 2 {
		t.Fatalf("repaired commit pointer at step %d, want 2", repaired.Step)
	}
}

func TestLoadShardedLatestValidAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	man, shards := buildShards(1, 1, []int{8})
	for _, step := range []int{2, 4} {
		man.Step = step
		if err := SaveShardedKeep(dir, man, shards, 2); err != nil {
			t.Fatal(err)
		}
	}
	flipByte(t, filepath.Join(dir, ShardFileName(2, 0, 0, 0)), 7)
	flipByte(t, filepath.Join(dir, ShardFileName(4, 0, 0, 0)), 7)
	_, _, quarantined, err := LoadShardedLatestValid(dir)
	wantCorrupt(t, err, "no valid checkpoint generation")
	// manifest.json survives, but nothing is left to resume from.
	if len(quarantined) != 2 || HasManifest(dir) {
		t.Fatalf("quarantined %v, HasManifest %v; want 2 generations and none left", quarantined, HasManifest(dir))
	}
}
