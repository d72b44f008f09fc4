package nn

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"orbit/internal/tensor"
)

// TestBenchPR8 is the PR 8 intra-rank kernel-scaling measurement, env-
// gated so `go test ./...` stays fast. Run via `make bench-pr8`
// (scripts/bench_pr8.sh), which records the results into
// BENCH_PR8.json.
//
// The sweep times the two headline kernels — a 256³ matmul and the
// fused multi-head attention forward (dim 256, 8 heads, 128 tokens) —
// at GOMAXPROCS ∈ {1, 2, 4, 8}, interleaving repetitions and taking
// medians. Speedups are relative to the GOMAXPROCS=1 arm of the same
// run. The report also carries the host's core count: on hosts with
// fewer physical cores than a sweep point, the measured arm for that
// point cannot scale — extra workers time-share the same cores — so
// `host_cores` says how much of the sweep was physically realizable.
func TestBenchPR8(t *testing.T) {
	out := os.Getenv("ORBIT_BENCH_PR8")
	if out == "" {
		t.Skip("set ORBIT_BENCH_PR8=<output.json> to run the PR 8 measurement")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	const reps = 5
	procsSweep := []int{1, 2, 4, 8}

	// Matmul arm: 256³, the BENCH_PR1 headline shape.
	rng := tensor.NewRNG(88)
	const mm = 256
	ma := tensor.Randn(rng, 1, mm, mm)
	mb := tensor.Randn(rng, 1, mm, mm)
	mdst := tensor.New(mm, mm)

	// Attention arm: fused forward at serving shape.
	const dim, heads, tokens = 256, 8, 128
	attn := NewMultiHeadAttention("bench", dim, heads, true, rng)
	ax := tensor.Randn(rng, 1, tokens, dim)

	timeKernel := func(f func()) float64 {
		f() // warm pools and caches at this worker count
		var samples []float64
		for r := 0; r < reps; r++ {
			start := time.Now()
			f()
			samples = append(samples, float64(time.Since(start).Nanoseconds())/1e6)
		}
		sort.Float64s(samples)
		return samples[len(samples)/2]
	}

	matmulMS := map[string]float64{}
	attnMS := map[string]float64{}
	for _, procs := range procsSweep {
		runtime.GOMAXPROCS(procs)
		key := fmt.Sprintf("%d", procs)
		matmulMS[key] = timeKernel(func() {
			for i := 0; i < 4; i++ {
				tensor.MatMulInto(mdst, ma, mb)
			}
		})
		attnMS[key] = timeKernel(func() {
			for i := 0; i < 4; i++ {
				attn.Forward(ax)
			}
		})
		t.Logf("GOMAXPROCS=%d: matmul %.3f ms, attention fwd %.3f ms", procs, matmulMS[key], attnMS[key])
	}

	speedups := func(ms map[string]float64) map[string]float64 {
		base := ms["1"]
		s := map[string]float64{}
		for k, v := range ms {
			s[k] = round3(base / v)
		}
		return s
	}
	report := map[string]any{
		"bench":      "pr8_intra_rank_parallel_kernels",
		"date":       time.Now().UTC().Format("2006-01-02"),
		"reps":       reps,
		"host_cores": runtime.NumCPU(),
		"benchmark":  "256x256x256 matmul and fused multi-head attention forward (dim 256, 8 heads, 128 tokens, QK-norm), median ms over GOMAXPROCS sweep; speedup vs the GOMAXPROCS=1 arm",
		"matmul_256": map[string]any{
			"ms_per_4_calls": roundMap(matmulMS),
			"speedup":        speedups(matmulMS),
		},
		"attention_fwd": map[string]any{
			"ms_per_4_calls": roundMap(attnMS),
			"speedup":        speedups(attnMS),
		},
	}
	if runtime.NumCPU() < 8 {
		report["note"] = fmt.Sprintf("host has %d core(s): sweep points above that count cannot show real scaling here; run `make bench-pr8` on an 8-core host", runtime.NumCPU())
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("benchpr8: wrote %s\n", out)
}

func roundMap(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		out[k] = round3(v)
	}
	return out
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
