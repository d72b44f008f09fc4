// Package experiments regenerates every table and figure of the ORBIT
// paper's evaluation section. The Frontier-scale results (Fig. 5,
// Table I, Fig. 6, Fig. 7) come from the calibrated analytical model
// in internal/perf; the learning results (Fig. 8, Fig. 9, Fig. 10)
// come from real training of scaled-down models on the synthetic
// climate substrate. Each runner returns structured rows and has a
// formatter that prints the same quantities the paper reports.
package experiments

import (
	"fmt"
	"strings"

	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/perf"
	"orbit/internal/vit"
)

// Fig5Row is one GPU count of the maximal-model-size comparison.
type Fig5Row struct {
	GPUs   int
	FSDP   int64
	TP     int64
	Hybrid int64
}

// Fig5 computes the maximal trainable model size per strategy from 1
// to 512 GPUs (batch 2, 48 channels — the paper's setting).
func Fig5() []Fig5Row {
	spec := cluster.Frontier()
	opts := core.DefaultOptions()
	var rows []Fig5Row
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
		rows = append(rows, Fig5Row{
			GPUs:   n,
			FSDP:   perf.MaxModelSize(perf.FSDPOnly, n, 48, 2, spec, opts),
			TP:     perf.MaxModelSize(perf.TPOnly, n, 48, 2, spec, opts),
			Hybrid: perf.MaxModelSize(perf.HybridSTOP, n, 48, 2, spec, opts),
		})
	}
	return rows
}

// FormatFig5 renders the Fig. 5 table.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — maximal model size by parallelism (48 channels, batch 2)\n")
	fmt.Fprintf(&b, "%6s  %12s  %12s  %12s\n", "GPUs", "FSDP", "TensorPar", "Hybrid-STOP")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d  %11.1fB  %11.1fB  %11.1fB\n",
			r.GPUs, float64(r.FSDP)/1e9, float64(r.TP)/1e9, float64(r.Hybrid)/1e9)
	}
	b.WriteString("paper @512: FSDP ≈ 20B, tensor ≈ 73B, Hybrid-STOP ≈ 143B (largest demonstrated)\n")
	return b.String()
}

// TableIRow is one optimization column of Table I.
type TableIRow struct {
	Name       string
	Opts       core.Options
	MicroBatch int
	OOM        bool
	// Walltime is seconds per observation data point.
	Walltime float64
	// Paper is the published value for comparison (0 for the OOM
	// column).
	Paper float64
}

// TableI reproduces the optimization-ablation walltimes for the 113 B
// model on 512 GPUs (TP 8 × FSDP 64, 48 channels). Micro-batches
// follow the paper's configuration: 1 without activation
// checkpointing, 3 with it (checkpointing frees the memory that makes
// the larger batch fit — the paper's Fig. 6 batch-3 run).
func TableI() []TableIRow {
	spec := cluster.Frontier()
	shape := perf.FromConfig(vit.ORBIT113B)
	layout := core.Layout{TP: 8, FSDP: 64, DDP: 1}
	rows := []TableIRow{
		{Name: "none", Opts: core.Options{}, MicroBatch: 1},
		{Name: "+layer wrapping", Opts: core.Options{LayerWrapping: true}, MicroBatch: 1, Paper: 0.97},
		{Name: "+mixed precision", Opts: core.Options{LayerWrapping: true, MixedPrecision: true}, MicroBatch: 1, Paper: 0.49},
		{Name: "+prefetching", Opts: core.Options{LayerWrapping: true, MixedPrecision: true, PrefetchDepth: 1}, MicroBatch: 1, Paper: 0.40},
		{Name: "+activation ckpt", Opts: core.DefaultOptions(), MicroBatch: 3, Paper: 0.17},
	}
	for i := range rows {
		plan := perf.Plan{Layout: layout, Opts: rows[i].Opts, MicroBatch: rows[i].MicroBatch}
		if !perf.Fits(shape, perf.HybridSTOP, plan, spec) {
			rows[i].OOM = true
			continue
		}
		rows[i].Walltime = perf.Step(shape, plan, spec, 0).TimePerSample()
	}
	return rows
}

// FormatTableI renders the ablation table.
func FormatTableI(rows []TableIRow) string {
	var b strings.Builder
	b.WriteString("Table I — 113B walltime per observation, 512 GPUs (TP 8 × FSDP 64)\n")
	fmt.Fprintf(&b, "%-18s  %10s  %10s\n", "optimizations", "model", "paper")
	for _, r := range rows {
		if r.OOM {
			fmt.Fprintf(&b, "%-18s  %10s  %10s\n", r.Name, "OOM", "OOM")
			continue
		}
		fmt.Fprintf(&b, "%-18s  %9.2fs  %9.2fs\n", r.Name, r.Walltime, r.Paper)
	}
	return b.String()
}

// Fig6Row is one parallelism configuration of the Fig. 6 sweep.
type Fig6Row struct {
	TP, FSDP   int
	OOM        bool
	Walltime   float64 // seconds per observation
	MemoryGB   float64 // peak per GPU
	MicroBatch int
}

// Fig6 sweeps FSDP×TP group-size combinations for the 113 B model on
// 512 GPUs with DDP = 1, reporting walltime and memory (the paper's
// optimum is FSDP 64 × TP 8 at ≈0.33 s with batch 3).
func Fig6() []Fig6Row {
	spec := cluster.Frontier()
	shape := perf.FromConfig(vit.ORBIT113B)
	opts := core.DefaultOptions()
	var rows []Fig6Row
	for tp := 1; tp <= 256; tp *= 2 {
		fsdp := 512 / tp
		if fsdp < 1 {
			continue
		}
		row := Fig6Row{TP: tp, FSDP: fsdp}
		// The TP=1 extreme is "FSDP alone", which behaves like vanilla
		// FSDP and runs out of memory on the 113 B model, exactly as
		// the paper reports for Fig. 6's edge. TP beyond the head
		// count is legal for Hybrid-STOP (Eqn. 2 shards arbitrary
		// matrix columns), just slow across nodes.
		strat := perf.HybridSTOP
		if tp == 1 {
			strat = perf.FSDPOnly
			plan := perf.Plan{Layout: core.Layout{TP: 1, FSDP: fsdp, DDP: 1}, Opts: opts, MicroBatch: 1}
			plan.Opts.LayerWrapping = false
			if !perf.Fits(shape, strat, plan, spec) {
				row.OOM = true
				rows = append(rows, row)
				continue
			}
		}
		plan := perf.Plan{Layout: core.Layout{TP: tp, FSDP: fsdp, DDP: 1}, Opts: opts, MicroBatch: 1}
		if !perf.Fits(shape, strat, plan, spec) {
			row.OOM = true
			rows = append(rows, row)
			continue
		}
		mb := perf.MaxMicroBatch(shape, strat, plan, spec)
		if mb > 3 {
			mb = 3 // the paper's best configuration used batch 3
		}
		plan.MicroBatch = mb
		row.MicroBatch = mb
		row.Walltime = perf.Step(shape, plan, spec, 0).TimePerSample()
		row.MemoryGB = perf.MemoryPerGPU(shape, strat, plan, spec) / (1 << 30)
		rows = append(rows, row)
	}
	return rows
}

// FormatFig6 renders the configuration sweep.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Fig. 6 — 113B on 512 GPUs: time & memory vs (FSDP × TP) group sizes\n")
	fmt.Fprintf(&b, "%6s  %6s  %6s  %12s  %10s\n", "FSDP", "TP", "batch", "s/sample", "mem GB")
	for _, r := range rows {
		if r.OOM {
			fmt.Fprintf(&b, "%6d  %6d  %6s  %12s  %10s\n", r.FSDP, r.TP, "-", "OOM", "-")
			continue
		}
		fmt.Fprintf(&b, "%6d  %6d  %6d  %12.3f  %10.1f\n", r.FSDP, r.TP, r.MicroBatch, r.Walltime, r.MemoryGB)
	}
	b.WriteString("paper: fastest 0.33 s/sample at FSDP 64 × TP 8 (batch 3); OOM at either extreme\n")
	return b.String()
}

// Fig7Row is one (model, GPU-count) point of the strong-scaling study.
type Fig7Row struct {
	Model      string
	Channels   int
	GPUs       int
	TimePerObs float64
	Efficiency float64
	PFLOPS     float64
}

// Fig7 computes strong-scaling efficiency and time-to-solution from
// 512 to 49,152 GPUs for all four model sizes at the given channel
// count (48 for Fig. 7a, 91 for Fig. 7b).
func Fig7(channels int) []Fig7Row {
	spec := cluster.Frontier()
	opts := core.DefaultOptions()
	gpuCounts := []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 49152}
	var rows []Fig7Row
	for _, cfg := range vit.PaperConfigs() {
		c := cfg.WithChannels(channels)
		shape := perf.FromConfig(c)
		basePlan := perf.DefaultPlanFor(shape, 512, spec, opts)
		base := perf.Step(shape, basePlan, spec, 0)
		for _, n := range gpuCounts {
			plan := perf.DefaultPlanFor(shape, n, spec, opts)
			b := perf.Step(shape, plan, spec, 0)
			rows = append(rows, Fig7Row{
				Model:      cfg.Name,
				Channels:   channels,
				GPUs:       n,
				TimePerObs: b.TimePerSample(),
				Efficiency: perf.StrongScalingEfficiency(base.TimePerSample(), 512, b.TimePerSample(), n),
				PFLOPS:     perf.SustainedFLOPS(perf.TrainFLOPs(shape, opts), b) / 1e15,
			})
		}
	}
	return rows
}

// FormatFig7 renders the strong-scaling series.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&b, "Fig. 7 — strong scaling, %d channels (T = s/observation, E vs 512 GPUs)\n", rows[0].Channels)
	}
	fmt.Fprintf(&b, "%-12s  %6s  %10s  %6s  %8s\n", "model", "GPUs", "T", "E", "PFLOPS")
	last := ""
	for _, r := range rows {
		if r.Model != last {
			last = r.Model
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%-12s  %6d  %10.2e  %5.0f%%  %8.0f\n", r.Model, r.GPUs, r.TimePerObs, r.Efficiency*100, r.PFLOPS)
	}
	b.WriteString("\npaper @49,152 GPUs: E ∈ [44,82]% (48ch) / [41,85]% (91ch); 10B ≈ 1e-4 s (1.6 EF); 113B ≈ 3e-3 s (684 PF)\n")
	return b.String()
}
