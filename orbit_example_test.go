package orbit_test

// The runnable documentation: these Example functions are the README
// quickstart and the auto-planner usage, compiled and
// output-asserted by `go test` (CI runs them with -count=2, so an
// example that leaks state — files, globals — fails the second pass).
// Outputs print layouts, counts, and booleans rather than raw float
// losses so the assertions hold on every architecture.

import (
	"fmt"
	"log"
	"os"

	orbit "orbit"
)

// Example_quickstart is the README quickstart: build a small ORBIT
// model, pre-train it on the synthetic CMIP6-like corpus, and check
// it learns.
func Example_quickstart() {
	vars := orbit.RegistrySmall()
	const height, width = 16, 32
	corpus := orbit.NewPretrainCorpus(vars, height, width, 128, 4)
	cfg := orbit.TinyConfig(len(vars), height, width)
	tc := orbit.DefaultTrainConfig()
	tc.TotalSteps = 12
	model, curve, err := orbit.Pretrain(cfg, tc, corpus, 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("channels: %d\n", len(vars))
	fmt.Printf("parameters > 10k: %v\n", model.NumParams() > 10_000)
	fmt.Printf("wMSE decreased over 12 steps: %v\n",
		curve[len(curve)-1].Loss < curve[0].Loss)
	// Output:
	// channels: 8
	// parameters > 10k: true
	// wMSE decreased over 12 steps: true
}

// Example_bestPlan asks the parallelism auto-planner for the fastest
// Hybrid-STOP layout (TP x PP x FSDP x DDP; PP=1 means no pipelining)
// and tuning knobs on a 16-GPU simulated cluster. The cluster's
// compute throughput is scaled down so the toy-sized functional
// workload sees a production compute-to-communication ratio (see
// plan.ScaledShape).
func Example_bestPlan() {
	w := orbit.PlanWorkload{
		Dim: 32, Heads: 4, Layers: 3, Tokens: 16, QKNorm: true,
		GlobalBatch: 64,
		Opts:        orbit.DefaultOptions(),
	}
	shape := orbit.ScaledPlanShape(2, 1e-3) // 2 nodes x 8 GPUs
	best, err := orbit.BestPlan(w, shape, orbit.PlanConstraints{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("layout: TP=%d PP=%d FSDP=%d DDP=%d\n", best.Layout.TP, best.Layout.PP, best.Layout.FSDP, best.Layout.DDP)
	fmt.Printf("knobs: prefetch depth %d, DDP bucket %d KiB, %d micro-batches\n",
		best.Knobs.PrefetchDepth, best.Knobs.DDPBucketBytes>>10, best.Knobs.MicroBatches)
	// The prediction is machine-readable: best.Explain() is JSON with
	// step time, per-phase communication waits, and both memory models.
	fmt.Printf("prediction is feasible: %v\n", !best.Pred.OOM)
	// Output:
	// layout: TP=1 PP=1 FSDP=8 DDP=2
	// knobs: prefetch depth 2, DDP bucket 1024 KiB, 4 micro-batches
	// prediction is feasible: true
}

// Example_elasticReplan runs elastic distributed training with the
// planner in the loop: a node dies mid-run, the 16-rank layout no
// longer fits the surviving machine, so the auto-planner (TP pinned —
// the checkpoint cannot reshard across a TP change) picks the layout
// the job reloads the newest sharded checkpoint onto.
func Example_elasticReplan() {
	dir, err := os.MkdirTemp("", "orbit-elastic")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := orbit.ElasticConfig{
		Layout: orbit.Layout{TP: 2, FSDP: 4, DDP: 2}, // 16 ranks on 2 nodes
		Nodes:  2,
		Dim:    8, Heads: 2, Layers: 2, Tokens: 5,
		GlobalBatch: 8, LR: 1e-2, MinLR: 1e-3, WarmupSteps: 2,
		TotalSteps: 12, Seed: 3, DataSeed: 7,
		CkptDir: dir, CkptEvery: 4,
		Opts: orbit.DefaultOptions(),
	}
	inj := orbit.NewFaultInjector()
	inj.KillNodeAtStep(1, 9)
	res, err := orbit.RunElastic(cfg, inj)
	if err != nil {
		log.Fatal(err)
	}
	replanned := false
	for _, ev := range res.Events {
		if ev.Kind == "plan" {
			replanned = true
		}
	}
	fmt.Printf("rebuilds: %d\n", res.Rebuilds)
	fmt.Printf("planner consulted on rebuild: %v\n", replanned)
	fmt.Printf("TP preserved: %v\n", res.FinalLayout.TP == 2)
	fmt.Printf("survivor fits one node: %v\n", res.FinalLayout.Ranks() <= 8)
	fmt.Printf("loss decreased: %v\n", res.Losses[11] < res.Losses[0])
	// Output:
	// rebuilds: 1
	// planner consulted on rebuild: true
	// TP preserved: true
	// survivor fits one node: true
	// loss decreased: true
}
