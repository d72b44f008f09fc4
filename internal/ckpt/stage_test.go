package ckpt

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"orbit/internal/parallel"
	"orbit/internal/tensor"
)

// buildStageShards fabricates a PP×TP×FSDP checkpoint with sequential
// values (buildShards' scheme, plus a stage-dependent offset folded
// into the global block index so misrouted blocks are visible).
func buildStageShards(pp, tp, fsdp int, flatLens []int, stages [][2]int) (*Manifest, []*RankShard) {
	man := &Manifest{
		Layout:      ShardLayout{TP: tp, PP: pp, FSDP: fsdp, DDP: 1},
		FlatLens:    flatLens,
		StageBlocks: stages,
		Step:        7,
		OptStep:     7,
		GlobalBatch: 8,
		RNG:         tensor.NewRNG(3).State(),
	}
	if tp > 1 {
		for t := 0; t < tp; t++ {
			man.FlatLensTP = append(man.FlatLensTP, flatLens)
		}
	}
	var shards []*RankShard
	for p := 0; p < pp; p++ {
		rng := man.StageRange(p)
		for t := 0; t < tp; t++ {
			for f := 0; f < fsdp; f++ {
				sh := &RankShard{P: p, T: t, F: f}
				for b := rng[0]; b < rng[1]; b++ {
					l := flatLens[b]
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
	}
	return man, shards
}

func TestStageShardedSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	man, shards := buildStageShards(2, 2, 2, []int{10, 6, 8}, [][2]int{{0, 1}, {1, 3}})
	if err := SaveShardedKeep(dir, man, shards, 1); err != nil {
		t.Fatal(err)
	}
	// Shard names carry the stage coordinate.
	if _, err := os.Stat(filepath.Join(dir, ShardFileName(man.Step, 1, 0, 1))); err != nil {
		t.Fatalf("stage shard file missing: %v", err)
	}
	backMan, backShards, err := loadShardedFrom(dir, ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if backMan.Layout != man.Layout || !reflect.DeepEqual(backMan.StageBlocks, man.StageBlocks) {
		t.Fatalf("layout/stage_blocks mismatch: %+v vs %+v", backMan, man)
	}
	if !reflect.DeepEqual(backShards, shards) {
		t.Error("stage shards did not round-trip: positions or payloads differ")
	}
}

// TestStageShardCRCFlip pins the v3 digest gate for stage shards: a
// single flipped byte in any stage's shard file must surface as
// *CorruptError before deserialization.
func TestStageShardCRCFlip(t *testing.T) {
	dir := t.TempDir()
	man, shards := buildStageShards(2, 1, 2, []int{10, 6}, [][2]int{{0, 1}, {1, 2}})
	if err := SaveShardedKeep(dir, man, shards, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ShardFileName(man.Step, 1, 0, 0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = loadShardedFrom(dir, ManifestName)
	wantCorrupt(t, err, "shard digest")
}

// TestReshardPPBitIdentical regroups a 2-stage checkpoint to 1 and 3
// stages and back: every block's chunks must come through untouched,
// and a follow-up FSDP reshard on the regrouped shards must match
// resharding the original.
func TestReshardPPBitIdentical(t *testing.T) {
	man, shards := buildStageShards(2, 2, 2, []int{10, 6, 8, 4}, [][2]int{{0, 1}, {1, 4}})

	// collapse reassembles (p,t,f)→blocks into a t→global-block view.
	collapse := func(m *Manifest, stages [][2]int, shs []*RankShard) map[[3]int]BlockShard {
		out := map[[3]int]BlockShard{}
		for _, sh := range shs {
			lo := stages[sh.P][0]
			for b, blk := range sh.Blocks {
				out[[3]int{sh.T, sh.F, lo + b}] = blk
			}
		}
		return out
	}
	want := collapse(man, man.StageBlocks, shards)

	one, err := Reshard(man, shards, nil, man.Layout.FSDP)
	if err != nil {
		t.Fatal(err)
	}
	if got := collapse(man, [][2]int{{0, 4}}, one); !reflect.DeepEqual(got, want) {
		t.Fatal("PP=2 → PP=1 changed block payloads")
	}

	three, err := Reshard(man, shards, [][2]int{{0, 2}, {2, 3}, {3, 4}}, man.Layout.FSDP)
	if err != nil {
		t.Fatal(err)
	}
	if got := collapse(man, [][2]int{{0, 2}, {2, 3}, {3, 4}}, three); !reflect.DeepEqual(got, want) {
		t.Fatal("PP=2 → PP=3 changed block payloads")
	}

	// FSDP reshard after collapsing stages must equal resharding a
	// checkpoint that was saved single-stage.
	man1 := *man
	man1.Layout.PP = 1
	man1.StageBlocks = nil
	viaPP, err := Reshard(&man1, one, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Reshard(man, shards, nil, man.Layout.FSDP) // fresh copy for the direct path
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Reshard(&man1, flat, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaPP, direct) {
		t.Fatal("FSDP reshard after the stage regroup diverged")
	}
}

func TestReshardStageAwareFSDP(t *testing.T) {
	// FSDP resharding without collapsing stages: each stage's row
	// reshards independently and keeps its stage coordinate.
	man, shards := buildStageShards(2, 1, 4, []int{10, 6}, [][2]int{{0, 1}, {1, 2}})
	out, err := Reshard(man, shards, man.StageBlocks, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2*1*2 {
		t.Fatalf("%d shards, want 4", len(out))
	}
	for _, sh := range out {
		rng := man.StageRange(sh.P)
		if len(sh.Blocks) != rng[1]-rng[0] {
			t.Fatalf("stage %d shard has %d blocks, want %d", sh.P, len(sh.Blocks), rng[1]-rng[0])
		}
		for b, blk := range sh.Blocks {
			global := rng[0] + b
			l := man.FlatLens[global]
			chunkLen := parallel.Padded(l, 2) / 2
			for i := 0; i < chunkLen; i++ {
				logical := sh.F*chunkLen + i
				var want float32
				if logical < l {
					want = float32(global*10_000 + logical)
				}
				if blk.W[i] != want {
					t.Fatalf("stage %d block %d elem %d = %v, want %v", sh.P, global, i, blk.W[i], want)
				}
			}
		}
	}
}

func TestStageManifestValidate(t *testing.T) {
	base := func() *Manifest {
		man, _ := buildStageShards(2, 1, 1, []int{10, 6}, [][2]int{{0, 1}, {1, 2}})
		return man
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid stage manifest rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"stage out of range", func(m *Manifest) { m.StageBlocks = [][2]int{{0, 1}, {1, 5}} }},
		{"overlapping stages", func(m *Manifest) { m.StageBlocks = [][2]int{{0, 2}, {1, 2}} }},
		{"gapped stages", func(m *Manifest) { m.StageBlocks = [][2]int{{0, 1}, {2, 2}} }},
		{"empty stage", func(m *Manifest) { m.StageBlocks = [][2]int{{0, 2}, {2, 2}} }},
		{"missing stage ranges", func(m *Manifest) { m.StageBlocks = nil }},
		{"range count mismatch", func(m *Manifest) { m.StageBlocks = [][2]int{{0, 2}} }},
		{"incomplete cover", func(m *Manifest) { m.FlatLens = []int{10, 6, 8} }},
		{"negative pp", func(m *Manifest) { m.Layout.PP = -1 }},
		{"huge pp", func(m *Manifest) { m.Layout.PP = maxShardExtent + 1 }},
	}
	for _, c := range cases {
		man := base()
		c.mut(man)
		if err := man.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// A single-stage manifest may spell out its (whole-stack) range.
	man := base()
	man.Layout.PP = 1
	man.StageBlocks = [][2]int{{0, 2}}
	if err := man.Validate(); err != nil {
		t.Errorf("explicit single-stage range rejected: %v", err)
	}
}

func TestReshardPPErrors(t *testing.T) {
	man, shards := buildStageShards(2, 1, 1, []int{10, 6}, [][2]int{{0, 1}, {1, 2}})
	if _, err := Reshard(man, shards[:1], nil, 1); err == nil {
		t.Fatal("short shard list accepted")
	}
	for _, bad := range [][][2]int{
		{{0, 1}, {1, 5}},
		{{0, 2}, {2, 2}},
		{{0, 1}},
		{{1, 2}, {0, 1}},
	} {
		if _, err := Reshard(man, shards, bad, 1); err == nil {
			t.Fatalf("bad new stages %v accepted", bad)
		}
	}
}
