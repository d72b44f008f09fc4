package infer

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orbit/internal/ckpt"
	"orbit/internal/nn"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

func mustSameParams(t *testing.T, what string, got, want []*nn.Param) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params vs %d", what, len(got), len(want))
	}
	for i := range got {
		if d := tensor.MaxDiff(got[i].W, want[i].W); d != 0 {
			t.Fatalf("%s: param %d (%s) differs by %g", what, i, want[i].Name, d)
		}
	}
}

// TestLoadModelKinds proves LoadModel accepts every file checkpoint
// kind and rejects directories.
func TestLoadModelKinds(t *testing.T) {
	cfg := vit.Tiny(2, 8, 8)
	m, err := vit.New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	p1 := filepath.Join(dir, "weights.ckpt")
	if err := ckpt.Save(p1, m, false); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(p1)
	if err != nil {
		t.Fatal(err)
	}
	mustSameParams(t, "weights ckpt", got.Params(), m.Params())

	// A training-state checkpoint loads as a model too (moments are
	// skipped).
	st := &ckpt.TrainState{Model: m}
	for _, p := range m.Params() {
		st.OptM = append(st.OptM, make([]float32, p.W.Len()))
		st.OptV = append(st.OptV, make([]float32, p.W.Len()))
	}
	p2 := filepath.Join(dir, "train.ckpt")
	if err := ckpt.SaveTrainState(p2, st, false); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadModel(p2)
	if err != nil {
		t.Fatal(err)
	}
	mustSameParams(t, "train-state ckpt", got2.Params(), m.Params())

	if _, err := LoadModel(dir); err == nil {
		t.Fatal("plain directory must fail")
	}
	sh := filepath.Join(dir, "sharded")
	if err := os.MkdirAll(sh, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sh, ckpt.GenManifestName(1)), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadModel(sh)
	if err == nil || !strings.Contains(err.Error(), "holds elastic training state") || !strings.Contains(err.Error(), "cannot be served") {
		t.Fatalf("sharded dir: error %v, want one saying it holds elastic training state that cannot be served", err)
	}
}
