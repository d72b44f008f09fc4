package core

import (
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/nn"
	"orbit/internal/tensor"
)

// TestHybridSTOPStepSteadyStateAllocs: after warmup, a full
// Hybrid-STOP training step (ZeroGrad, forward, backward on every rank of a
// TP 2 × FSDP 2 grid) performs zero heap allocations — the compiled
// pass's step buffer, the pending-collective records and the TP
// residual scratch must all recycle. Rank goroutines persist across
// steps so the measurement sees only the engine's own behaviour.
func TestHybridSTOPStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only valid in normal builds")
	}
	layout := Layout{TP: 2, FSDP: 2, DDP: 1}
	m := cluster.NewMachine(cluster.Frontier(), 1, 0)
	groups, err := BuildGroups(layout, m)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, layout.Ranks())
	for r := range engines {
		rng := tensor.NewRNG(9)
		ref := []*nn.TransformerBlock{
			nn.NewTransformerBlock("b0", 32, 4, true, rng),
			nn.NewTransformerBlock("b1", 32, 4, true, rng),
		}
		e, err := NewEngine(r, layout, groups[r], ref, DefaultOptions(), m.Devices[r])
		if err != nil {
			t.Fatal(err)
		}
		engines[r] = e
	}
	rng := tensor.NewRNG(10)
	xs := []*tensor.Tensor{tensor.Randn(rng, 1, 16, 32), tensor.Randn(rng, 1, 16, 32)}
	gs := []*tensor.Tensor{tensor.Randn(rng, 1, 16, 32), tensor.Randn(rng, 1, 16, 32)}

	type job struct{ start, done chan struct{} }
	jobs := make([]job, layout.Ranks())
	for r := range jobs {
		jobs[r] = job{start: make(chan struct{}), done: make(chan struct{})}
		go func(rank int) {
			c := layout.CoordOf(rank)
			for range jobs[rank].start {
				engines[rank].ZeroGrad()
				if _, err := engines[rank].Forward(xs[c.F]); err != nil {
					panic(err)
				}
				if _, err := engines[rank].Backward(gs[c.F]); err != nil {
					panic(err)
				}
				jobs[rank].done <- struct{}{}
			}
		}(r)
	}
	step := func() {
		for r := range jobs {
			jobs[r].start <- struct{}{}
		}
		for r := range jobs {
			<-jobs[r].done
		}
	}
	for i := 0; i < 3; i++ {
		step() // warm module scratch, buffer pools, pending free lists
	}
	allocs := testing.AllocsPerRun(10, step)
	if allocs != 0 {
		t.Errorf("steady-state Hybrid-STOP step allocates %.1f objects, want 0", allocs)
	}
	for r := range jobs {
		close(jobs[r].start)
	}
}
