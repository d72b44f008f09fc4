// Faults: elastic fault-tolerant training on the simulated cluster.
//
// A 16-rank Hybrid-STOP job (TP 2 × FSDP 4 × DDP 2 on two Frontier
// nodes) checkpoints every 5 steps in the sharded format — each (TP,
// FSDP) grid position saves only its own parameter/optimizer chunks.
// At step 12 a whole node is killed. The job notices at the step
// boundary and rebuilds the machine without the dead node. The 16-rank
// layout no longer fits the surviving 8 GPUs, so the auto-planner picks
// one that does (TP stays 2: TP shards cannot reshard), the FSDP chunks
// reshard on load from the newest checkpoint, and the run finishes.
//
// Because the global batch is fixed and every checkpoint captures the
// optimizer moments, step counters, and the data-stream RNG, the loss
// trajectory matches an uninterrupted 16-rank run: bit-identically up
// to the failure, and within float32 reduction-grouping error (≪1e-6)
// after the layout change — the same property the test suite enforces.
//
//	go run ./examples/faults
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	orbit "orbit"
	"orbit/internal/core"
)

func main() {
	dir, err := os.MkdirTemp("", "orbit-faults-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := orbit.ElasticConfig{
		Layout:      core.Layout{TP: 2, FSDP: 4, DDP: 2},
		Nodes:       2,
		Dim:         16,
		Heads:       4,
		Layers:      2,
		Tokens:      8,
		GlobalBatch: 8,
		LR:          1e-2, MinLR: 1e-3, WarmupSteps: 3,
		TotalSteps: 20,
		Seed:       3, DataSeed: 7,
		CkptDir: dir, CkptEvery: 5,
		Opts: orbit.DefaultOptions(),
	}
	fmt.Printf("elastic Hybrid-STOP: TP %d × FSDP %d × DDP %d = %d GPUs on %d nodes, ckpt every %d steps\n\n",
		cfg.Layout.TP, cfg.Layout.FSDP, cfg.Layout.DDP, cfg.Layout.Ranks(), cfg.Nodes, cfg.CkptEvery)

	// Reference: the same job with no faults.
	ref := cfg
	ref.CkptDir, err = os.MkdirTemp("", "orbit-faults-ref-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ref.CkptDir)
	refRes, err := orbit.RunElastic(ref, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Faulted: node 1 dies at step 12.
	inj := orbit.NewFaultInjector()
	inj.KillNodeAtStep(1, 12)
	res, err := orbit.RunElastic(cfg, inj)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("fault-tolerance events:")
	for _, e := range res.Events {
		fmt.Printf("  step %2d  %-10s %s\n", e.Step, e.Kind, e.Detail)
	}

	fmt.Printf("\n%-5s %-12s %-12s %s\n", "step", "faulted", "fault-free", "|diff|")
	worst := 0.0
	for s := range res.Losses {
		d := math.Abs(res.Losses[s] - refRes.Losses[s])
		if d > worst {
			worst = d
		}
		marker := ""
		if s == 12 {
			marker = "  <- node killed here"
		} else if s == 10 {
			marker = "  <- resumed from this checkpoint"
		}
		fmt.Printf("%-5d %-12.6f %-12.6f %.2g%s\n", s, res.Losses[s], refRes.Losses[s], d, marker)
	}
	fmt.Printf("\nsurvived %d rebuild(s); finished as TP %d × FSDP %d × DDP %d on %d node(s)\n",
		res.Rebuilds, res.FinalLayout.TP, res.FinalLayout.FSDP, res.FinalLayout.DDP, res.FinalNodes)
	fmt.Printf("worst per-step loss deviation vs fault-free run: %.2g\n", worst)
	if worst > 1e-6 {
		log.Fatalf("FAILED: trajectory deviated by %g > 1e-6 after resharding", worst)
	}
	fmt.Println("kill + reshard + resume preserved the training trajectory ✓")
}
