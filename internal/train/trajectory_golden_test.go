package train

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"orbit/internal/ckpt"
	"orbit/internal/core"
)

// update regenerates testdata/trajectory_golden.txt and nothing else:
// go test ./internal/train -run TestTrainTrajectoryGolden -update. Do
// this only when a PR moves training bits on purpose, and say so in
// CHANGES.md.
var update = flag.Bool("update", false, "regenerate the training-trajectory golden")

const trajectoryGoldenPath = "testdata/trajectory_golden.txt"

// TestTrainTrajectoryGolden pins a training run against stored values:
// five steps of one task on TP2×PP2×FSDP2 and on a single rank, the
// loss of every step as Float64bits and an FNV-1a hash over the final
// weights and AdamW moments. Every other training gate compares a run
// with another run of the same build, so a kernel that moves the bits
// of both sides alike passes them all; this one does not. The shapes
// are picked to reach the vector kernels and their tails: dim 32 and
// head dim 8 (four-lane LayerNorm / QK-norm bodies), 10 token rows (two
// four-row groups and a two-row tail), flat chunks of odd length.
// Exact on amd64; elsewhere the compiler contracts a·b+c into one FMA,
// so the losses are held to 1e-6 relative and the hash is not compared.
func TestTrainTrajectoryGolden(t *testing.T) {
	runs := []struct {
		name   string
		layout core.Layout
		stages int
	}{
		{"hybrid TP2xPP2xFSDP2", core.Layout{TP: 2, FSDP: 2, DDP: 1}, 2},
		{"single", core.Layout{TP: 1, FSDP: 1, DDP: 1}, 1},
	}
	const steps = 5
	var got []string
	for _, r := range runs {
		dir := t.TempDir()
		res, err := RunElastic(ElasticConfig{
			Layout: r.layout, PP: r.stages, Nodes: 1, GPUsPerNode: 8,
			Dim: 32, Heads: 4, Layers: 2, Tokens: 10,
			GlobalBatch: 4, LR: 1e-2, MinLR: 1e-3, WarmupSteps: 2, WeightDecay: 0.01,
			TotalSteps: steps, Seed: 22, DataSeed: 23,
			CkptDir: dir, CkptEvery: steps,
			Opts: core.DefaultOptions(),
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for s, l := range res.Losses {
			got = append(got, fmt.Sprintf("%s loss %d %016x %v", r.name, s, math.Float64bits(l), l))
		}
		_, shards, _, err := ckpt.LoadShardedLatestValid(dir)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		h := fnv.New64a()
		for _, sh := range shards { // (P, T, F) order
			for _, b := range sh.Blocks {
				for _, vals := range [][]float32{b.W, b.M, b.V} {
					binary.Write(h, binary.LittleEndian, vals)
				}
			}
		}
		got = append(got, fmt.Sprintf("%s state %016x", r.name, h.Sum64()))
	}

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectoryGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), trajectoryGoldenPath)
		return
	}
	raw, err := os.ReadFile(trajectoryGoldenPath)
	if err != nil {
		t.Fatalf("missing trajectory golden (run with -update to generate): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d rows, run produced %d", len(want), len(got))
	}
	exact := runtime.GOARCH == "amd64"
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		if !exact {
			if strings.Contains(want[i], " state ") {
				continue
			}
			var g, w float64
			gf, wf := strings.Fields(got[i]), strings.Fields(want[i])
			fmt.Sscan(gf[len(gf)-1], &g)
			fmt.Sscan(wf[len(wf)-1], &w)
			if math.Abs(g-w) <= 1e-6*math.Abs(w) {
				continue
			}
		}
		t.Errorf("row %d moved:\n got  %s\n want %s", i, got[i], want[i])
	}
}
