// Command orbit-pretrain pre-trains ORBIT models on the synthetic
// CMIP6-like corpus. With -sweep it runs the paper's Fig. 8
// model-size comparison; with -layout it runs distributed
// Hybrid-STOP training over the simulated cluster (elastic, with
// sharded checkpointing); otherwise it trains a single model with
// optional checkpoint/resume fault tolerance.
//
// Usage:
//
//	orbit-pretrain -sweep -scale full
//	orbit-pretrain -steps 200 -embed 32 -save model.orbt
//
// Distributed over the simulated cluster:
//
//	orbit-pretrain -layout 2x4x2 -nodes 2 -steps 20            # explicit TPxFSDPxDDP
//	orbit-pretrain -layout auto -nodes 2 -steps 20             # auto-planner picks the layout
//	orbit-pretrain -layout auto -kill-node-step 12 -ckpt-dir d # survive a node loss, replan, resume
//
// Distributed runs execute under the training-run supervisor: corrupt
// checkpoints are quarantined in favor of an older valid generation
// (-keep), divergent steps roll back to the last good checkpoint
// (-max-rollbacks), and a hung rank is detected and evicted by the
// wall-clock watchdog (-step-deadline):
//
//	orbit-pretrain -layout 2x4x2 -ckpt-dir d -keep 3 -step-deadline 2s
//	orbit-pretrain -layout 2x4x2 -ckpt-dir d -stall-node-step 12 -step-deadline 500ms
//
// Fault tolerance (single-model mode; -keep retains generations so a
// corrupt newest checkpoint falls back to an older valid one):
//
//	orbit-pretrain -steps 200 -ckpt-every 50 -state run.state.orbt -keep 3
//	orbit-pretrain -steps 200 -ckpt-every 50 -state run.state.orbt -kill-step 120   # dies after step 120
//	orbit-pretrain -steps 200 -ckpt-every 50 -state run.state.orbt -resume run.state.orbt
//
// A resumed run continues the loss trajectory bit-identically as long
// as -steps (the schedule horizon) and the data configuration match
// the original run.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	orbit "orbit"
)

func main() {
	sweep := flag.Bool("sweep", false, "run the Fig. 8 model-size sweep")
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	steps := flag.Int("steps", 100, "optimizer steps")
	embed := flag.Int("embed", 32, "embedding dimension")
	save := flag.String("save", "", "final weights-only checkpoint path (single-model mode)")
	ckptEvery := flag.Int("ckpt-every", 0, "save a checkpoint every N steps (training state in single-model mode, sharded in -layout mode)")
	statePath := flag.String("state", "orbit-pretrain.state.orbt", "training-state checkpoint path (single-model mode)")
	resume := flag.String("resume", "", "resume from a training-state checkpoint (single-model mode)")
	killStep := flag.Int("kill-step", 0, "simulate a fault: exit(1) after completing this step (single-model mode)")
	layoutFlag := flag.String("layout", "", "distributed mode over the simulated cluster: TPxFSDPxDDP, TPxPPxFSDPxDDP with pipeline stages (e.g. 2x4x2 or 2x2x4x1), or 'auto' to let the 4D parallelism planner choose")
	nodes := flag.Int("nodes", 2, "simulated cluster size in nodes (-layout mode; 8 GPUs per node)")
	heads := flag.Int("heads", 4, "attention heads of the distributed transformer stack (-layout mode)")
	layers := flag.Int("layers", 3, "transformer blocks of the distributed stack (-layout mode)")
	tokens := flag.Int("tokens", 16, "tokens per sample of the distributed stack (-layout mode)")
	globalBatch := flag.Int("global-batch", 16, "fixed global batch micro-batched over the data ranks (-layout mode)")
	ckptDir := flag.String("ckpt-dir", "", "sharded-checkpoint directory (-layout mode; enables fault recovery)")
	keep := flag.Int("keep", 0, "retain the newest N checkpoint generations for corruption fallback (0 = single checkpoint, overwritten in place)")
	killNodeStep := flag.Int("kill-node-step", 0, "simulate a whole-node failure at this step (-layout mode)")
	stallNodeStep := flag.Int("stall-node-step", 0, "simulate a node hanging (not dying) mid-step at this step; the watchdog must detect it (-layout mode)")
	stepDeadline := flag.Duration("step-deadline", 0, "hang watchdog: declare the run stalled when no rank makes progress for this long (0 disables; -layout mode)")
	maxRollbacks := flag.Int("max-rollbacks", 2, "divergence supervisor: checkpoint rollbacks to attempt before giving up, at least 1 (-layout mode)")
	computeScale := flag.Float64("compute-scale", 1e-3, "device-throughput scale for -layout mode: the functional workload is toy-sized, so scaling compute down gives the simulated machine (and the auto-planner) a production compute/communication ratio (1 = full-speed Frontier)")
	flag.Parse()
	if err := checkFlags(limits{
		steps: *steps, nodes: *nodes, ckptEvery: *ckptEvery, keep: *keep, killStep: *killStep,
		killNodeStep: *killNodeStep, stallNodeStep: *stallNodeStep, maxRollbacks: *maxRollbacks,
		stepDeadline: *stepDeadline, computeScale: *computeScale,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "orbit-pretrain:", err)
		os.Exit(2)
	}
	sc, err := orbit.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "orbit-pretrain:", err)
		os.Exit(2)
	}

	if *sweep {
		fmt.Println(orbit.FormatFig8(orbit.Fig8(sc)))
		return
	}

	if *layoutFlag != "" {
		runGuarded(*layoutFlag, *nodes, *embed, *heads, *layers, *tokens,
			*globalBatch, *steps, *ckptEvery, *keep, *ckptDir,
			*killNodeStep, *stallNodeStep, *maxRollbacks, *stepDeadline, *computeScale)
		return
	}

	vars := orbit.RegistrySmall()
	corpus := orbit.NewPretrainCorpus(vars, 16, 32, 256, 4)
	cfg := orbit.TinyConfig(len(vars), 16, 32)
	cfg.EmbedDim = *embed
	tc := orbit.DefaultTrainConfig()
	tc.TotalSteps = *steps

	var tr *orbit.Trainer
	done := 0
	if *resume != "" {
		// Resume from the newest retained generation that passes
		// integrity verification — a corrupt newest checkpoint is
		// quarantined and an older valid one used instead.
		st, from, quarantined, err := orbit.LoadLatestTrainerState(*resume)
		for _, q := range quarantined {
			fmt.Printf("warning: corrupt checkpoint quarantined: %s\n", q)
		}
		if err != nil {
			log.Fatal(err)
		}
		tr, err = orbit.RestoreTrainer(st, tc)
		if err != nil {
			log.Fatal(err)
		}
		done = st.Meta.Step
		fmt.Printf("resumed from %s at step %d (%d samples)\n", from, done, st.Meta.Samples)
	} else {
		m, err := orbit.NewModel(cfg, tc.Seed)
		if err != nil {
			log.Fatal(err)
		}
		tr = orbit.NewTrainer(m, tc)
	}

	var firstLoss, lastLoss float64
	haveFirst := false // first loss seen by THIS process (not step 0 when resumed)
	for done < *steps {
		// Run to the next checkpoint / kill boundary.
		n := *steps - done
		if *ckptEvery > 0 {
			if to := *ckptEvery - done%*ckptEvery; to < n {
				n = to
			}
		}
		if *killStep > done && *killStep-done < n {
			n = *killStep - done
		}
		curve := tr.Run(corpus, n)
		done += n
		if !haveFirst {
			firstLoss = curve[0].Loss
			haveFirst = true
		}
		lastLoss = curve[len(curve)-1].Loss
		if *ckptEvery > 0 && done%*ckptEvery == 0 && done < *steps {
			var err error
			if *keep > 0 {
				err = orbit.SaveTrainerStateRetained(*statePath, tr, false, *keep)
			} else {
				err = orbit.SaveTrainerState(*statePath, tr, false)
			}
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("checkpoint: step %d -> %s\n", done, *statePath)
		}
		if *killStep > 0 && done == *killStep && done < *steps {
			fmt.Printf("simulated fault: process killed after step %d\n", done)
			fmt.Printf("resume with: orbit-pretrain -steps %d -ckpt-every %d -state %s -resume %s\n",
				*steps, *ckptEvery, *statePath, *statePath)
			os.Exit(1)
		}
	}

	m := tr.Model
	fmt.Printf("pre-trained %s: %d params, %d samples\n", cfg.Name, m.NumParams(), tr.Samples())
	if haveFirst {
		fmt.Printf("loss: %.4f -> %.4f\n", firstLoss, lastLoss)
	}
	if *save != "" {
		if err := orbit.SaveModel(*save, m, true); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint written to %s (bf16)\n", *save)
	}
}

// limits holds the flags checkFlags bounds.
type limits struct {
	steps, nodes, maxRollbacks                             int
	ckptEvery, keep, killStep, killNodeStep, stallNodeStep int
	stepDeadline                                           time.Duration
	computeScale                                           float64
}

// checkFlags rejects the settings no run can honour, naming the flag.
// A negative count or deadline is not "off", and the supervisor reads
// -max-rollbacks 0 as its default of 2, so 0 cannot mean "no rollback".
func checkFlags(l limits) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"-ckpt-every", l.ckptEvery}, {"-keep", l.keep}, {"-kill-step", l.killStep},
		{"-kill-node-step", l.killNodeStep}, {"-stall-node-step", l.stallNodeStep}} {
		if f.v < 0 {
			return fmt.Errorf("%s %d: need 0 (off) or a positive value", f.name, f.v)
		}
	}
	switch {
	case l.stepDeadline < 0:
		return fmt.Errorf("-step-deadline %v: need 0 (off) or a positive deadline", l.stepDeadline)
	case l.steps < 1:
		return fmt.Errorf("-steps %d: need at least one step", l.steps)
	case l.nodes < 1:
		return fmt.Errorf("-nodes %d: need at least one node", l.nodes)
	case l.maxRollbacks < 1:
		return fmt.Errorf("-max-rollbacks %d: need at least 1 (the supervisor reads 0 as its default of 2, so rollback cannot be turned off)", l.maxRollbacks)
	case !(l.computeScale > 0) || math.IsInf(l.computeScale, 1):
		return fmt.Errorf("-compute-scale %g: need a finite scale > 0", l.computeScale)
	}
	return nil
}

// runGuarded is the -layout mode: distributed Hybrid-STOP training of
// a transformer stack over the simulated cluster under the training-run
// supervisor — planner-chosen or explicit parallelism, elastic fault
// recovery, checkpoint-integrity fallback, divergence rollback, and
// (with -step-deadline) the hang watchdog.
func runGuarded(layoutSpec string, nodes, dim, heads, layers, tokens, globalBatch, steps, ckptEvery, keep int, ckptDir string, killNodeStep, stallNodeStep, maxRollbacks int, stepDeadline time.Duration, computeScale float64) {
	cfg := orbit.ElasticConfig{
		Nodes: nodes,
		Dim:   dim, Heads: heads, Layers: layers, Tokens: tokens,
		GlobalBatch: globalBatch,
		LR:          1e-2, MinLR: 1e-3, WarmupSteps: 2,
		TotalSteps: steps, Seed: 3, DataSeed: 7,
		CkptDir: ckptDir, CkptEvery: ckptEvery, Keep: keep,
		ComputeScale: computeScale,
		Opts:         orbit.DefaultOptions(),
	}
	if layoutSpec == "auto" {
		w := orbit.PlanWorkload{
			Dim: dim, Heads: heads, Layers: layers, Tokens: tokens, QKNorm: true,
			GlobalBatch: globalBatch, Opts: cfg.Opts,
		}
		// Plan against the same (scaled) machine the elastic job will
		// simulate on — see ElasticConfig.ComputeScale. The planner
		// searches all four axes, so it picks a pipelined layout only
		// when the replayed schedule (bubbles included) beats every
		// PP=1 layout or when only pipelining fits device memory.
		best, err := orbit.BestPlan(w, orbit.ScaledPlanShape(nodes, computeScale), orbit.PlanConstraints{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("auto-planner chose %s\n", best)
		cfg.Layout = best.Layout.Inner()
		cfg.PP = best.Layout.PP
		cfg.Opts = best.Options(cfg.Opts)
		cfg.AutoPlan = true // replan on every post-fault rebuild too
	} else {
		l4, err := orbit.ParseLayout(layoutSpec)
		if err != nil {
			log.Fatalf("bad -layout %q: want TPxFSDPxDDP, TPxPPxFSDPxDDP (e.g. 2x2x4x1) or 'auto'", layoutSpec)
		}
		cfg.Layout = l4.Inner()
		cfg.PP = l4.PP
	}
	var inj *orbit.FaultInjector
	if killNodeStep > 0 || stallNodeStep > 0 {
		inj = orbit.NewFaultInjector()
		if killNodeStep > 0 {
			inj.KillNodeAtStep(cfg.Nodes-1, killNodeStep)
		}
		if stallNodeStep > 0 {
			if stepDeadline <= 0 {
				log.Fatal("-stall-node-step needs -step-deadline: a stalled node hangs forever without the watchdog")
			}
			inj.StallNodeAtStep(cfg.Nodes-1, stallNodeStep)
		}
	}
	res, err := orbit.RunGuarded(orbit.GuardConfig{
		Elastic:      cfg,
		Inj:          inj,
		StepDeadline: stepDeadline,
		MaxRollbacks: maxRollbacks,
	})
	if res != nil {
		for _, ev := range res.Events {
			fmt.Printf("  [step %3d] %-14s %s\n", ev.Step, ev.Kind, ev.Detail)
		}
		if res.Elastic != nil {
			for _, ev := range res.Elastic.Events {
				fmt.Printf("  [step %3d] %-14s %s\n", ev.Step, ev.Kind, ev.Detail)
			}
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	el := res.Elastic
	fmt.Printf("trained %d steps at final layout TP=%d PP=%d FSDP=%d DDP=%d on %d nodes (%d rebuilds, %d rollbacks, %d watchdog kills)\n",
		steps, el.FinalLayout.TP, el.FinalPP, el.FinalLayout.FSDP, el.FinalLayout.DDP, el.FinalNodes, el.Rebuilds,
		res.Rollbacks, res.WatchdogKills)
	fmt.Printf("loss: %.4f -> %.4f\n", res.Losses[0], res.Losses[len(res.Losses)-1])
}
