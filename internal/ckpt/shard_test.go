package ckpt

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"orbit/internal/parallel"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

// validTrainState builds a minimal consistent training state for
// save-path tests.
func validTrainState(t *testing.T) *TrainState {
	t.Helper()
	m, err := vit.New(vit.Tiny(2, 8, 8), 9)
	if err != nil {
		t.Fatal(err)
	}
	st := &TrainState{Model: m, Meta: TrainMeta{Step: 5, Samples: 20, OptStep: 5, DataIndex: 20}}
	for _, p := range m.Params() {
		st.OptM = append(st.OptM, make([]float32, p.W.Len()))
		st.OptV = append(st.OptV, make([]float32, p.W.Len()))
	}
	return st
}

// buildShards fabricates a TP×FSDP checkpoint whose logical flat
// vectors are sequential values, so any slicing mistake is visible.
// As in a real TP checkpoint, rows T > 0 are shorter than row 0: they
// lack the two output biases, which live only on row 0.
func buildShards(tp, fsdp int, flatLens []int) (*Manifest, []*RankShard) {
	man := &Manifest{
		Layout:      ShardLayout{TP: tp, FSDP: fsdp, DDP: 1},
		FlatLens:    flatLens,
		Step:        12,
		OptStep:     11,
		GlobalBatch: 8,
		RNG:         tensor.NewRNG(3).State(),
	}
	if tp > 1 {
		man.FlatLensTP = append(man.FlatLensTP, flatLens)
		for t := 1; t < tp; t++ {
			var short []int
			for _, l := range flatLens {
				short = append(short, l-2)
			}
			man.FlatLensTP = append(man.FlatLensTP, short)
		}
	}
	var shards []*RankShard
	for t := 0; t < tp; t++ {
		for f := 0; f < fsdp; f++ {
			sh := &RankShard{T: t, F: f}
			for b, l := range man.FlatLensFor(t) {
				chunkLen := parallel.Padded(l, fsdp) / fsdp
				blk := BlockShard{
					W: make([]float32, chunkLen),
					M: make([]float32, chunkLen),
					V: make([]float32, chunkLen),
				}
				for i := 0; i < chunkLen; i++ {
					logical := f*chunkLen + i
					if logical < l {
						base := float32(t*1000_000 + b*10_000 + logical)
						blk.W[i] = base
						blk.M[i] = base + 0.25
						blk.V[i] = base + 0.5
					}
				}
				sh.Blocks = append(sh.Blocks, blk)
			}
			shards = append(shards, sh)
		}
	}
	return man, shards
}

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	man, shards := buildShards(2, 4, []int{10, 6})
	if err := SaveShardedKeep(dir, man, shards, 1); err != nil {
		t.Fatal(err)
	}
	if !HasManifest(dir) {
		t.Fatal("manifest missing after save")
	}
	backMan, backShards, err := loadShardedFrom(dir, ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if backMan.Layout != man.Layout || backMan.Step != man.Step ||
		backMan.OptStep != man.OptStep || backMan.RNG != man.RNG {
		t.Errorf("manifest mismatch: %+v vs %+v", backMan, man)
	}
	if !reflect.DeepEqual(backShards, shards) {
		t.Error("shards did not round-trip: positions or payloads differ")
	}
}

// TestReshardHalvesExactly checks 4→2 resharding reproduces the
// logical flat vector bit-identically — including when padding
// boundaries move (flat length 10: F=4 pads to 12, F=2 pads to 10) and
// for TP rows of unequal length (row 1's blocks are 8 and 4 long).
func TestReshardHalvesExactly(t *testing.T) {
	man, shards := buildShards(2, 4, []int{10, 6})
	newShards, err := Reshard(man, shards, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(newShards) != 2*2 {
		t.Fatalf("%d shards after reshard, want 4", len(newShards))
	}
	for tp := 0; tp < 2; tp++ {
		for b, l := range man.FlatLensFor(tp) {
			chunkLen := parallel.Padded(l, 2) / 2
			for f := 0; f < 2; f++ {
				sh := newShards[tp*2+f]
				if sh.T != tp || sh.F != f {
					t.Fatalf("reshard order wrong at %d: (%d,%d)", tp*2+f, sh.T, sh.F)
				}
				for i := 0; i < chunkLen; i++ {
					logical := f*chunkLen + i
					var want float32
					if logical < l {
						want = float32(tp*1000_000 + b*10_000 + logical)
					}
					if got := sh.Blocks[b].W[i]; got != want {
						t.Fatalf("t%d f%d block %d elem %d: W %v, want %v", tp, f, b, i, got, want)
					}
					wantM, wantV := want, want
					if logical < l {
						wantM, wantV = want+0.25, want+0.5
					}
					if sh.Blocks[b].M[i] != wantM || sh.Blocks[b].V[i] != wantV {
						t.Fatalf("t%d f%d block %d elem %d: moments wrong", tp, f, b, i)
					}
				}
			}
		}
	}
}

// TestReshardGrowAndShrinkRoundTrip reshards 2→3→2 and requires the
// original chunks back bit-identically.
func TestReshardGrowAndShrinkRoundTrip(t *testing.T) {
	man, shards := buildShards(1, 2, []int{7})
	grown, err := Reshard(man, shards, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	man3 := *man
	man3.Layout.FSDP = 3
	back, err := Reshard(&man3, grown, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, shards) {
		t.Error("2→3→2 reshard did not return the original shards")
	}
}

func TestReshardSameLayoutIsIdentity(t *testing.T) {
	man, shards := buildShards(1, 2, []int{8})
	out, err := Reshard(man, shards, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(shards) || out[0] != shards[0] {
		t.Error("same-extent reshard should return the input shards")
	}
}

func TestLoadShardedIncompleteDir(t *testing.T) {
	dir := t.TempDir()
	man, shards := buildShards(1, 2, []int{8})
	if err := SaveShardedKeep(dir, man, shards, 1); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ShardFileName(man.Step, 0, 0, 1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadShardedFrom(dir, ManifestName); err == nil {
		t.Error("expected error for a checkpoint missing a shard file")
	}
	if _, _, err := loadShardedFrom(t.TempDir(), ManifestName); err == nil {
		t.Error("expected error for a directory with no manifest")
	}
}

// TestOverwritingSaveKeepsOldCheckpointLoadable pins the crash-safety
// discipline: saving a newer checkpoint into the same directory must
// never touch the files the previous manifest references, and after
// the new manifest commits, the superseded shards are pruned.
func TestOverwritingSaveKeepsOldCheckpointLoadable(t *testing.T) {
	dir := t.TempDir()
	man1, shards1 := buildShards(1, 2, []int{8})
	if err := SaveShardedKeep(dir, man1, shards1, 1); err != nil {
		t.Fatal(err)
	}
	old1 := filepath.Join(dir, ShardFileName(man1.Step, 0, 0, 0))
	if _, err := os.Stat(old1); err != nil {
		t.Fatal(err) // the prune check below must not pass vacuously
	}

	man2, shards2 := buildShards(1, 2, []int{8})
	man2.Step = man1.Step + 4
	shards2[0].Blocks[0].W[0] = 777 // distinguishable content
	if err := SaveShardedKeep(dir, man2, shards2, 1); err != nil {
		t.Fatal(err)
	}
	// The step-4-later save wrote different file names, so a crash
	// mid-save could not have corrupted step-12's files; after the
	// commit they are pruned.
	if _, err := os.Stat(old1); !os.IsNotExist(err) {
		t.Errorf("superseded shard %s not pruned (err=%v)", old1, err)
	}
	backMan, backShards, err := loadShardedFrom(dir, ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if backMan.Step != man2.Step || backShards[0].Blocks[0].W[0] != 777 {
		t.Error("latest checkpoint not the one loaded")
	}
}

// TestSaveTrainStatePreservesOldOnError checks the atomic-write
// contract on the single-file path: a failed save must leave the
// previous checkpoint readable.
func TestSaveTrainStatePreservesOldOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.orbt")
	st := validTrainState(t)
	if err := SaveTrainState(path, st, false); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the state so the next save fails validation mid-stream.
	bad := &TrainState{Model: st.Model, OptM: st.OptM[:1], OptV: st.OptV[:1]}
	if err := SaveTrainState(path, bad, false); err == nil {
		t.Fatal("expected error saving a state with missing moments")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after failed save: %v", err)
	}
	if len(after) != len(before) {
		t.Error("previous checkpoint was clobbered by a failed save")
	}
	if _, err := LoadTrainState(path); err != nil {
		t.Errorf("previous checkpoint no longer loads: %v", err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d files in checkpoint dir, want 1 (temp files must be cleaned up)", len(entries))
	}
}

func TestShardFileCorruptedMagic(t *testing.T) {
	dir := t.TempDir()
	man, shards := buildShards(1, 1, []int{4})
	if err := SaveShardedKeep(dir, man, shards, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ShardFileName(man.Step, 0, 0, 0))
	raw, _ := os.ReadFile(path)
	copy(raw, "JUNK")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadShardedFrom(dir, ManifestName); err == nil {
		t.Error("expected error for corrupted shard magic")
	}
}
