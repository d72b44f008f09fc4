package train

import (
	"runtime"
	"testing"

	"orbit/internal/core"
)

// TestElasticStepDeterministicAcrossGOMAXPROCS runs the same
// Hybrid-STOP elastic training job at GOMAXPROCS 1, 4 and 8 and
// requires a bit-identical loss trajectory. The per-rank goroutines
// run their kernels concurrently on however many Ps there are; every
// reduction's order is fixed by the layout, never by which rank's
// goroutine runs first.
func TestElasticStepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	testElasticGOMAXPROCS(t, 1)
}

// TestElasticPPStepDeterministicAcrossGOMAXPROCS repeats the sweep
// with a 2-stage 1F1B pipeline on top of the same inner grid: the
// cross-stage activation/gradient sends add another source of
// goroutine interleaving that must not leak into the float sequence.
func TestElasticPPStepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	testElasticGOMAXPROCS(t, 2)
}

func testElasticGOMAXPROCS(t *testing.T, stages int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := func() ElasticConfig {
		return ElasticConfig{
			Layout: core.Layout{TP: 2, FSDP: 2, DDP: 1}, PP: stages,
			Nodes: 1, GPUsPerNode: 4 * stages,
			Dim: 64, Heads: 4, Layers: 2, Tokens: 64,
			GlobalBatch: 4, LR: 1e-2, MinLR: 1e-3, WarmupSteps: 2,
			TotalSteps: 4, Seed: 5, DataSeed: 9,
			CkptDir: t.TempDir(), CkptEvery: 0,
			Opts: core.DefaultOptions(),
		}
	}
	var ref []float64
	for i, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		res, err := RunElastic(cfg(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res.Losses
			continue
		}
		if len(res.Losses) != len(ref) {
			t.Fatalf("GOMAXPROCS=%d: %d steps, want %d", procs, len(res.Losses), len(ref))
		}
		for s := range ref {
			if res.Losses[s] != ref[s] {
				t.Fatalf("GOMAXPROCS=%d: loss diverges at step %d: %v != %v", procs, s, res.Losses[s], ref[s])
			}
		}
	}
}
