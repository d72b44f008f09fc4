// Parallelism: run the paper's Hybrid-STOP algorithm as a real SPMD
// program on 8 simulated Frontier GPUs (TP 2 × FSDP 2 × DDP 2) and
// verify, numerically, that the distributed gradients equal a serial
// reference — the correctness property behind paper Fig. 3 — then
// report the simulated memory and communication accounting.
//
//	go run ./examples/parallelism
package main

import (
	"fmt"
	"log"
	"sync"

	orbit "orbit"
	"orbit/internal/core"
	"orbit/internal/nn"
	"orbit/internal/tensor"
)

const (
	dim    = 16
	heads  = 4
	layers = 2
	tokens = 8
)

func buildStack(seed uint64) []*nn.TransformerBlock {
	rng := tensor.NewRNG(seed)
	blocks := make([]*nn.TransformerBlock, layers)
	for i := range blocks {
		blocks[i] = nn.NewTransformerBlock(fmt.Sprintf("blk%d", i), dim, heads, true, rng)
	}
	return blocks
}

func main() {
	layout := orbit.Layout{TP: 2, FSDP: 2, DDP: 2}
	machine := orbit.NewCluster(1) // one Frontier node: 8 GPUs
	groups, err := orbit.BuildGroups(layout, machine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Hybrid-STOP grid: TP %d × FSDP %d × DDP %d = %d simulated GPUs\n",
		layout.TP, layout.FSDP, layout.DDP, layout.Ranks())

	// Every rank shards the same reference model (same seed).
	engines := make([]*orbit.HybridSTOPEngine, layout.Ranks())
	for r := range engines {
		e, err := core.NewEngine(r, layout, groups[r], buildStack(7), orbit.DefaultOptions(), machine.Devices[r])
		if err != nil {
			log.Fatal(err)
		}
		engines[r] = e
	}

	// Global batch: one sample per (FSDP, DDP) pair; TP ranks share.
	rng := tensor.NewRNG(99)
	xs := make([]*tensor.Tensor, 4)
	targets := make([]*tensor.Tensor, 4)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, tokens, dim)
		targets[i] = tensor.Randn(rng, 1, tokens, dim)
	}

	// Serial reference: same batch, gradients averaged.
	serial := buildStack(7)
	serialLoss := serialStep(serial, xs, targets)

	// Distributed run: 8 goroutine ranks.
	losses := make([]float64, layout.Ranks())
	var wg sync.WaitGroup
	for r := 0; r < layout.Ranks(); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := layout.CoordOf(rank)
			sample := c.D*layout.FSDP + c.F
			y, err := engines[rank].Forward(xs[sample])
			if err != nil {
				log.Fatal(err)
			}
			loss, grad := mse(y, targets[sample])
			if _, err := engines[rank].Backward(grad); err != nil {
				log.Fatal(err)
			}
			losses[rank] = engines[rank].AverageLoss(loss)
		}(r)
	}
	wg.Wait()

	fmt.Printf("\nserial loss:       %.6f\n", serialLoss)
	fmt.Printf("hybrid-STOP loss:  %.6f (identical on all %d ranks)\n", losses[0], layout.Ranks())
	diff := serialLoss - losses[0]
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-5 {
		log.Fatalf("MISMATCH: distributed loss differs by %g", diff)
	}
	fmt.Println("distributed == serial ✓ (the paper's Fig. 3 equivalence)")

	fmt.Println("\nsimulated device accounting:")
	for _, d := range machine.Devices[:layout.Ranks()] {
		fmt.Printf("  gpu %d (node %d): peak mem %6.1f KiB, comm time %.3g s (simulated)\n",
			d.ID, d.Node, float64(d.MemPeak())/1024, d.CommTime())
	}
}

// mse returns mean squared error and its gradient.
func mse(y, target *tensor.Tensor) (float64, *tensor.Tensor) {
	diff := tensor.SubInto(tensor.New(y.Shape()...), y, target)
	loss := tensor.Dot(diff, diff) / float64(y.Len())
	diff.ScaleInPlace(float32(2) / float32(y.Len()))
	return loss, diff
}

// serialStep runs the reference stack over the batch with averaged
// gradients, returning the mean loss.
func serialStep(blocks []*nn.TransformerBlock, xs, targets []*tensor.Tensor) float64 {
	var total float64
	for i, x := range xs {
		h := x
		for _, b := range blocks {
			h = b.Forward(h)
		}
		loss, grad := mse(h, targets[i])
		total += loss
		grad.ScaleInPlace(float32(1) / float32(len(xs)))
		dy := grad
		for j := len(blocks) - 1; j >= 0; j-- {
			dy = blocks[j].Backward(dy)
		}
	}
	return total / float64(len(xs))
}
