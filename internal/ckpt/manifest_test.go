package ckpt

import "testing"

// TestReshardRejectsLegacyTPManifest: a TP>1 manifest without per-TP
// flat lengths cannot be resharded (T>0 rows are shorter than FlatLens,
// so stripping padding with it would misalign every later parameter).
// Its load is a *CorruptError naming flat_lens_tp, and Reshard refuses
// the short rows; with the rows present the reshard succeeds.
func TestReshardRejectsLegacyTPManifest(t *testing.T) {
	dir := t.TempDir()
	man, shards := buildShards(2, 1, []int{8})
	man.FlatLensTP = nil
	if err := SaveShardedKeep(dir, man, shards, 1); err != nil {
		t.Fatal(err)
	}
	_, _, err := loadShardedFrom(dir, ManifestName)
	wantCorrupt(t, err, "flat_lens_tp")
	man = &Manifest{Layout: ShardLayout{TP: 2, FSDP: 2, DDP: 1}, FlatLens: []int{64}}
	var grid []*RankShard
	for _, n := range []int{32, 32, 24, 24} {
		grid = append(grid, &RankShard{T: len(grid) / 2, F: len(grid) % 2, Blocks: []BlockShard{{W: make([]float32, n), M: make([]float32, n), V: make([]float32, n)}}})
	}
	if _, err := Reshard(man, grid, nil, 1); err == nil {
		t.Error("resharding a TP>1 manifest without flat_lens_tp must be rejected")
	}
	man.FlatLensTP = [][]int{{64}, {48}}
	if _, err := Reshard(man, grid, nil, 1); err != nil {
		t.Errorf("reshard with per-TP lengths: %v", err)
	}
}

// TestManifestValidate covers the corrupt-manifest rejections. A TP>1
// manifest without a flat_lens_tp row per T is one of them.
func TestManifestValidate(t *testing.T) {
	good := Manifest{
		Layout:   ShardLayout{TP: 1, FSDP: 1, DDP: 1},
		FlatLens: []int{8},
		Shards:   []string{"shard-s1-p0-t0-f0.bin"},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	cases := map[string]func(m *Manifest){
		"zero tp":         func(m *Manifest) { m.Layout.TP = 0 },
		"huge fsdp":       func(m *Manifest) { m.Layout.FSDP = maxShardExtent + 1 },
		"negative step":   func(m *Manifest) { m.Step = -1 },
		"negative len":    func(m *Manifest) { m.FlatLens = []int{-4} },
		"huge len":        func(m *Manifest) { m.FlatLens = []int{maxSectionElems + 1} },
		"traversal shard": func(m *Manifest) { m.Shards = []string{"../evil.bin"} },
		"dot shard":       func(m *Manifest) { m.Shards = []string{".."} },
		"empty shard":     func(m *Manifest) { m.Shards = []string{""} },
		"tp-row count":    func(m *Manifest) { m.FlatLensTP = [][]int{{8}, {8}} },
		"tp2 no tp rows":  func(m *Manifest) { m.Layout.TP = 2 },
	}
	for name, mutate := range cases {
		m := good
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
