// Command orbit-scaling regenerates the ORBIT paper's Frontier-scale
// results from the calibrated analytical model: Fig. 5 (maximal model
// size per parallelism), Table I (optimization ablation), Fig. 6
// (parallelism-configuration sweep) and Fig. 7 (strong scaling to
// 49,152 GPUs). With -auto it instead runs the parallelism
// auto-planner against a brute-force grid sweep on the functional
// simulated cluster: every power-of-two (TP, FSDP, DDP) layout is
// both predicted (internal/plan's replay of the comm clock model) and
// actually simulated (real SPMD engines over simulated devices), and
// the planner's top choice over all four axes (TP, PP, FSDP, DDP) is
// graded against the measured optimum.
//
// Usage:
//
//	orbit-scaling -all
//	orbit-scaling -fig 5
//	orbit-scaling -fig 7 -channels 91
//	orbit-scaling -table 1
//	orbit-scaling -auto -nodes 2
//	orbit-scaling -auto -nodes 8 -global-batch 64
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	orbit "orbit"
)

func main() {
	fig := flag.Int("fig", 0, "paper figure to regenerate from the analytical model (5, 6 or 7)")
	table := flag.Int("table", 0, "paper table to regenerate from the analytical model (1)")
	channels := flag.Int("channels", 48, "input channels for the Fig. 7 strong-scaling run (48 or 91)")
	all := flag.Bool("all", false, "regenerate every scaling table and figure")
	auto := flag.Bool("auto", false, "grade the parallelism auto-planner against a brute-force grid sweep on the simulated cluster")
	nodes := flag.Int("nodes", 2, "simulated cluster size in nodes for -auto (8 GPUs per node)")
	globalBatch := flag.Int("global-batch", 64, "fixed global batch the -auto workload micro-batches over the data ranks")
	computeScale := flag.Float64("compute-scale", 1e-3, "device-throughput scale for -auto: the functional workload is toy-sized, so scaling compute down restores a production compute/communication ratio (1 = full-speed Frontier)")
	flag.Parse()

	ran := false
	if *auto {
		if err := checkAutoFlags(*nodes, *globalBatch, *computeScale); err != nil {
			fmt.Fprintln(os.Stderr, "orbit-scaling:", err)
			os.Exit(2)
		}
		runAuto(*nodes, *globalBatch, *computeScale)
		ran = true
	}
	if *all || *fig == 5 {
		fmt.Println(orbit.FormatFig5(orbit.Fig5()))
		ran = true
	}
	if *all || *table == 1 {
		fmt.Println(orbit.FormatTableI(orbit.TableI()))
		ran = true
	}
	if *all || *fig == 6 {
		fmt.Println(orbit.FormatFig6(orbit.Fig6()))
		ran = true
	}
	if *all || *fig == 7 {
		if *all {
			fmt.Println(orbit.FormatFig7(orbit.Fig7(48)))
			fmt.Println(orbit.FormatFig7(orbit.Fig7(91)))
		} else {
			fmt.Println(orbit.FormatFig7(orbit.Fig7(*channels)))
		}
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// checkAutoFlags rejects the -auto settings that cannot describe a
// cluster or a workload: the planner would report an empty grid for no
// devices, and ScaledPlanShape ignores a scale it cannot apply.
func checkAutoFlags(nodes, globalBatch int, computeScale float64) error {
	switch {
	case nodes < 1:
		return fmt.Errorf("-nodes %d: need at least one node", nodes)
	case globalBatch < 1:
		return fmt.Errorf("-global-batch %d: need at least one sample", globalBatch)
	case !(computeScale > 0) || math.IsInf(computeScale, 1):
		return fmt.Errorf("-compute-scale %g: need a finite scale > 0", computeScale)
	}
	return nil
}

// runAuto compares planner predictions against ground-truth
// simulation over the power-of-two grid, then grades the planner's
// unconstrained choice (which may pick non-power-of-two extents,
// different knobs, or pipeline stages) against the grid optimum.
func runAuto(nodes, globalBatch int, computeScale float64) {
	w := orbit.PlanWorkload{
		Dim: 32, Heads: 4, Layers: 3, Tokens: 16, QKNorm: true,
		GlobalBatch: globalBatch,
		Opts:        orbit.DefaultOptions(),
	}
	shape := orbit.ScaledPlanShape(nodes, computeScale)
	fmt.Printf("Parallelism auto-planner vs. brute-force grid sweep\n")
	fmt.Printf("cluster: %d nodes x %d GPUs (%s spec, compute x%g, %d devices); workload: dim %d, %d heads, %d layers, %d tokens, global batch %d\n\n",
		shape.Nodes, shape.GPUsPerNode, shape.Spec.Name, computeScale, shape.Devices(),
		w.Dim, w.Heads, w.Layers, w.Tokens, w.GlobalBatch)

	grid := orbit.PlanGrid(w, shape, orbit.PlanKnobs{PrefetchDepth: 1})
	if len(grid) == 0 {
		fmt.Printf("no power-of-two grid layout divides global batch %d on %d devices; try -global-batch with more factors\n",
			w.GlobalBatch, shape.Devices())
		return
	}
	fmt.Printf("%-4s %-4s %-5s %-4s %-6s %14s %14s %8s\n", "TP", "PP", "FSDP", "DDP", "micro", "predicted(ms)", "simulated(ms)", "err%")
	var optTime = math.Inf(1)
	var optRow string
	var maxErr, sumErr float64
	priced := 0
	for _, cand := range grid {
		meas := orbit.SimulatePlan(w, shape, cand, 2)
		if meas.Err != nil {
			fmt.Printf("%-4d %-4d %-5d %-4d %-6d %14s %14s %8s  (%v)\n",
				cand.Layout.TP, cand.Layout.PP, cand.Layout.FSDP, cand.Layout.DDP, cand.Knobs.MicroBatches,
				"-", "-", "-", meas.Err)
			continue
		}
		pred := orbit.PredictPlan(w, shape, cand).StepTime
		errPct := 100 * math.Abs(pred-meas.StepTime) / meas.StepTime
		sumErr += errPct
		priced++
		if errPct > maxErr {
			maxErr = errPct
		}
		row := fmt.Sprintf("%-4d %-4d %-5d %-4d %-6d %14.3f %14.3f %7.2f%%",
			cand.Layout.TP, cand.Layout.PP, cand.Layout.FSDP, cand.Layout.DDP, cand.Knobs.MicroBatches,
			1e3*pred, 1e3*meas.StepTime, errPct)
		fmt.Println(row)
		if meas.StepTime < optTime {
			optTime = meas.StepTime
			optRow = fmt.Sprintf("TP=%d PP=%d FSDP=%d DDP=%d", cand.Layout.TP, cand.Layout.PP, cand.Layout.FSDP, cand.Layout.DDP)
		}
	}
	if priced == 0 {
		fmt.Printf("\ncalibration: every grid point failed to simulate\n")
	} else {
		fmt.Printf("\ncalibration: mean |err| %.2f%%, max |err| %.2f%% over %d grid points\n",
			sumErr/float64(priced), maxErr, priced)
	}

	// The search has the pipeline axis open: a PP>1 layout wins only
	// when the replayed 1F1B schedule (bubbles included) beats every
	// PP=1 layout or when only pipelining fits the device memory.
	best, err := orbit.BestPlan(w, shape, orbit.PlanConstraints{})
	if err != nil {
		fmt.Printf("planner failed: %v\n", err)
		return
	}
	chosen := orbit.SimulatePlan(w, shape, best.Candidate4, 2)
	fmt.Printf("\nplanner choice: %s\n", best)
	if chosen.Err == nil && !math.IsInf(optTime, 1) {
		gap := 100 * (chosen.StepTime/optTime - 1)
		fmt.Printf("grid optimum:   %s at %.3f ms\n", optRow, 1e3*optTime)
		fmt.Printf("planner choice simulated at %.3f ms: %+.2f%% vs grid optimum\n", 1e3*chosen.StepTime, gap)
	}
	fmt.Printf("\nexplanation of the chosen plan:\n%s\n", best.Explain())
}
