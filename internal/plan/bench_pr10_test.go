package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"orbit/internal/core"
	"orbit/internal/pp"
)

// TestBenchPR10 is the PR 10 pipeline-parallelism measurement,
// recorded into BENCH_PR10.json by scripts/bench_pr10.sh. All numbers
// come from the simulated comm clock, so they are deterministic and
// host-independent:
//
//   - step time vs stage count at a fixed inner grid, and vs
//     micro-batch count at a fixed stage count — each point carries
//     the predicted and engine-simulated step time, their relative
//     error, and the bubble fraction (PPWait / StepTime, the
//     un-hidden pipeline stalls the replay surfaces);
//   - the memory-bound shape where every 3D layout OOMs and the 4D
//     planner finds a fitting PP=2 plan.
func TestBenchPR10(t *testing.T) {
	out := os.Getenv("ORBIT_BENCH_PR10")
	if out == "" {
		t.Skip("set ORBIT_BENCH_PR10=<output.json> to run the PR 10 measurement")
	}

	w := Workload{
		Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: true,
		GlobalBatch: 64,
		Opts:        core.DefaultOptions(),
	}
	c := ScaledShape(2, 1e-3)

	type point struct {
		Layout         string  `json:"layout"`
		Stages         int     `json:"stages"`
		MicroBatches   int     `json:"micro_batches"`
		PredictedMs    float64 `json:"predicted_ms"`
		SimulatedMs    float64 `json:"simulated_ms"`
		ErrPct         float64 `json:"err_pct"`
		PPWaitMs       float64 `json:"pp_wait_ms"`
		BubbleFraction float64 `json:"bubble_fraction"`
	}
	measure := func(wl Workload, l pp.Layout) point {
		cand := Candidate4{
			Layout: l,
			Knobs:  Knobs{PrefetchDepth: 1, MicroBatches: wl.GlobalBatch / (l.FSDP * l.DDP)},
		}
		pred := Predict4(wl, c, cand)
		if pred.OOM {
			t.Fatalf("%v predicted OOM: %s", l, pred.Note)
		}
		meas := Simulate4(wl, c, cand, 2)
		if meas.Err != nil {
			t.Fatalf("%v: %v", l, meas.Err)
		}
		return point{
			Layout:         l.String(),
			Stages:         l.PP,
			MicroBatches:   cand.Knobs.MicroBatches,
			PredictedMs:    1e3 * pred.StepTime,
			SimulatedMs:    1e3 * meas.StepTime,
			ErrPct:         100 * relErr(pred.StepTime, meas.StepTime),
			PPWaitMs:       1e3 * pred.PPWait,
			BubbleFraction: pred.PPWait / pred.StepTime,
		}
	}

	// Step time vs stage count: fixed inner grid TP=1 FSDP=2 DDP=2
	// (16 micro-batches per data rank), 1 → 4 stages.
	var vsStages []point
	for _, stages := range []int{1, 2, 4} {
		p := measure(w, pp.Layout{TP: 1, PP: stages, FSDP: 2, DDP: 2})
		vsStages = append(vsStages, p)
		t.Logf("benchpr10 stages=%d micro=%d: predicted %.3fms simulated %.3fms err %.2f%% bubble %.1f%%",
			p.Stages, p.MicroBatches, p.PredictedMs, p.SimulatedMs, p.ErrPct, 100*p.BubbleFraction)
	}

	// Step time vs micro-batch count: PP=2 fixed, global batch swept
	// so the per-rank micro count goes 2 → 16. The bubble fraction
	// must shrink as micro-batches amortize the warm-up/drain wedges.
	var vsMicros []point
	for _, gb := range []int{8, 16, 32, 64} {
		wl := w
		wl.GlobalBatch = gb
		p := measure(wl, pp.Layout{TP: 1, PP: 2, FSDP: 2, DDP: 2})
		vsMicros = append(vsMicros, p)
		t.Logf("benchpr10 micro=%d: predicted %.3fms simulated %.3fms err %.2f%% bubble %.1f%%",
			p.MicroBatches, p.PredictedMs, p.SimulatedMs, p.ErrPct, 100*p.BubbleFraction)
	}
	if first, last := vsMicros[0].BubbleFraction, vsMicros[len(vsMicros)-1].BubbleFraction; last >= first {
		t.Errorf("bubble fraction did not shrink with micro-batches: %.3f -> %.3f", first, last)
	}

	// Memory-bound 4D-vs-3D: GlobalBatch=1 pins FSDP=DDP=1, device
	// memory set between the best 3D footprint (TP=Heads) and the
	// PP=2 footprint. See TestMemoryBound4DBeats3D for the gate.
	wm := Workload{
		Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: true,
		GlobalBatch: 1,
		Opts:        core.DefaultOptions(),
	}
	cm := ScaledShape(1, 1e-3)
	knobs := Knobs{PrefetchDepth: 1, MicroBatches: 1}
	mem3 := Predict4(wm, cm, Candidate4{Layout: pp.Layout{TP: 4, PP: 1, FSDP: 1, DDP: 1}, Knobs: knobs}).DeviceBytes
	mem4 := Predict4(wm, cm, Candidate4{Layout: pp.Layout{TP: 4, PP: 2, FSDP: 1, DDP: 1}, Knobs: knobs}).DeviceBytes
	cm.Spec.MemPerGPU = (mem3 + mem4) / 2
	best3Str := "OOM: no 3D layout fits"
	if best3, err := Best4(wm, cm, Constraints{FixPP: 1}); err == nil {
		best3Str = best3.String()
	}
	best4, err := Best4(wm, cm, Constraints{})
	if err != nil {
		t.Fatalf("Best4 on the memory-bound shape: %v", err)
	}
	m4 := Simulate4(wm, cm, best4.Candidate4, 1)
	if m4.Err != nil {
		t.Fatal(m4.Err)
	}
	t.Logf("benchpr10 memory-bound: 3D min %d B, PP=2 %d B, device %d B; 3D: %s; 4D: %s (simulated peak %d B)",
		mem3, mem4, cm.Spec.MemPerGPU, best3Str, best4, m4.MemPeak)

	report := map[string]any{
		"generated_by": "scripts/bench_pr10.sh (TestBenchPR10 in internal/plan)",
		"note":         "all times are simulated comm-clock seconds (deterministic, host-independent); bubble_fraction = pp_wait / step_time from the 1F1B instruction replay",
		"cluster": map[string]any{
			"nodes": c.Nodes, "gpus_per_node": c.GPUsPerNode,
			"spec": c.Spec.Name, "compute_scale": 1e-3,
		},
		"workload": map[string]any{
			"dim": w.Dim, "heads": w.Heads, "layers": w.Layers,
			"tokens": w.Tokens, "global_batch": w.GlobalBatch,
		},
		"step_time_vs_stages":       vsStages,
		"step_time_vs_microbatches": vsMicros,
		"memory_bound_4d_vs_3d": map[string]any{
			"global_batch":        1,
			"mem_3d_min_bytes":    mem3,
			"mem_pp2_bytes":       mem4,
			"device_mem_bytes":    cm.Spec.MemPerGPU,
			"best_3d":             best3Str,
			"best_4d":             best4.String(),
			"simulated_peak_4d":   m4.MemPeak,
			"simulated_step_s_4d": m4.StepTime,
		},
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("benchpr10: wrote %s\n", out)
}
