package pp

import (
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/tensor"
)

// TestRunStepSteadyStateAllocs gates the pipeline step at zero heap
// allocations: after warm-up, a TP2×PP2×FSDP2 1F1B step of four
// micro-batches with QK-norm, on all eight ranks at once, allocates
// nothing — the step scratch, the activation sets, the link buffers and
// the pending collective records all recycle. Rank goroutines persist
// across steps, as in core's TestHybridSTOPStepSteadyStateAllocs.
func TestRunStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only valid in normal builds")
	}
	const layers, micros = 4, 4
	l := Layout{TP: 2, PP: 2, FSDP: 2, DDP: 1}
	stages, err := UniformPartition(layers, l.PP)
	if err != nil {
		t.Fatal(err)
	}
	m := cluster.NewMachine(cluster.Frontier(), 1, 0)
	engines, err := Build(l, stages, m, confStack(layers, true), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	start, done := make([]chan struct{}, len(engines)), make(chan struct{})
	for r, e := range engines {
		d := e.Coord.D*l.FSDP + e.Coord.F
		xs := make([]*tensor.Tensor, micros)
		for mu := range xs {
			xs[mu] = sampleX(d, mu)
		}
		g := tensor.New(confTokens, confDim)
		io := StepIO{
			Shape: []int{confTokens, confDim},
			Input: func(mu int) *tensor.Tensor { return xs[mu] },
			// lossGrad's |y|²/n, into a buffer of the rank's own.
			LossGrad: func(_ int, y *tensor.Tensor) (float64, *tensor.Tensor) {
				var s float64
				for i, v := range y.Data() {
					s += float64(v) * float64(v)
					g.Data()[i] = 2 * v / float32(y.Len())
				}
				return s / float64(y.Len()), g
			},
		}
		start[r] = make(chan struct{})
		go func() {
			for range start[r] {
				if _, err := e.RunStep(micros, io); err != nil {
					panic(err)
				}
				done <- struct{}{}
			}
		}()
	}
	step := func() {
		for _, c := range start {
			c <- struct{}{}
		}
		for range start {
			<-done
		}
	}
	for i := 0; i < 3; i++ {
		step() // warm the step scratch, the activation sets and the free lists
	}
	if allocs := testing.AllocsPerRun(10, step); allocs > 0 {
		t.Errorf("steady-state TP2×PP2×FSDP2 RunStep allocates %.1f objects per 8-rank step, want 0", allocs)
	}
	for _, c := range start {
		close(c)
	}
}
