package infer

import (
	"runtime"
	"testing"

	"orbit/internal/vit"
)

// TestGoldenRolloutDeterministicAcrossGOMAXPROCS reruns the golden
// rollout at GOMAXPROCS 1, 4 and 8 and requires every predicted value
// to be bit-identical: the engine's forward workers run concurrently,
// and a kernel's bits depend only on its operands, so inference output
// cannot depend on how many Ps ran it.
func TestGoldenRolloutDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref [][]float32
	for i, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		m, err := vit.New(goldenConfig(), goldenModelSeed)
		if err != nil {
			t.Fatal(err)
		}
		steps := goldenRollout(t, m)
		if i == 0 {
			ref = steps
			continue
		}
		for s := range steps {
			for c := range steps[s] {
				if steps[s][c] != ref[s][c] {
					t.Fatalf("GOMAXPROCS=%d: rollout step %d diverges at %d: %v != %v",
						procs, s, c, steps[s][c], ref[s][c])
				}
			}
		}
	}
}
