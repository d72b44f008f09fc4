package infer

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"orbit/internal/ckpt"
	"orbit/internal/quant"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

// TestBenchPR9 is the PR 9 quantized-formats measurement, env-gated so
// `go test ./...` stays fast. Run via `make bench-pr9`
// (scripts/bench_pr9.sh), which records the results into
// BENCH_PR9.json.
//
// Three arms, each comparing f32 against int8 and Q4_0:
//
//   - the serving-shaped matmul ([128,256] @ [256,256]) through the
//     f32 product vs the dequant-fused quantized one —
//     GFLOP/s and the weight-stream GB/s each format moves, plus an
//     asserted 0 allocs/op for the fused kernel's steady state;
//   - the frozen golden rollout served end to end from each format
//     (rollouts per second);
//   - checkpoint bytes on disk for the same model in all three
//     formats, with compression ratios.
//
// Arms are interleaved within each round and medians reported, so the
// ratios hold even as the host's absolute speed drifts.
func TestBenchPR9(t *testing.T) {
	out := os.Getenv("ORBIT_BENCH_PR9")
	if out == "" {
		t.Skip("set ORBIT_BENCH_PR9=<output.json> to run the PR 9 measurement")
	}

	const reps = 5

	// ---- Matmul arm: serving token matrix against one block weight.
	const m0, k0, n0 = 128, 256, 256
	const callsPerSample = 8
	rng := tensor.NewRNG(99)
	x := tensor.Randn(rng, 1, m0, k0)
	w := tensor.Randn(rng, 1, k0, n0)
	dst := tensor.New(m0, n0)
	qi8 := tensor.QuantizeTensor(w, tensor.QuantInt8)
	qq4 := tensor.QuantizeTensor(w, tensor.QuantQ4)

	arms := []struct {
		name   string
		wBytes int
		call   func()
	}{
		{"f32", 4 * k0 * n0, func() { tensor.MatMulInto(dst, x, w) }},
		{"int8", qi8.Bytes(), func() { tensor.MatMulQuantInto(dst, x, qi8, nil) }},
		{"q4_0", qq4.Bytes(), func() { tensor.MatMulQuantInto(dst, x, qq4, nil) }},
	}
	samples := map[string][]float64{}
	for _, a := range arms {
		a.call() // warm pools and scratch at steady state
	}
	for r := 0; r < reps; r++ {
		for _, a := range arms {
			start := time.Now()
			for i := 0; i < callsPerSample; i++ {
				a.call()
			}
			samples[a.name] = append(samples[a.name], float64(time.Since(start).Nanoseconds())/1e6)
		}
	}
	matmul := map[string]any{}
	flopsPerCall := 2.0 * m0 * k0 * n0
	for _, a := range arms {
		ms := median(samples[a.name])
		sec := ms / 1e3
		matmul[a.name] = map[string]float64{
			"ms_per_8_calls":  round3(ms),
			"gflops":          round3(flopsPerCall * callsPerSample / sec / 1e9),
			"weight_gb_per_s": round3(float64(a.wBytes) * callsPerSample / sec / 1e9),
		}
	}

	// The fused kernel's zero-allocation invariant is part of the
	// report, asserted rather than merely recorded.
	allocs := map[string]float64{}
	for _, a := range arms[1:] {
		got := testing.AllocsPerRun(10, a.call)
		if got != 0 {
			t.Fatalf("%s fused matmul allocates %.1f allocs/op in steady state, want 0", a.name, got)
		}
		allocs[a.name] = got
	}

	// ---- Serving arm: the frozen golden rollout from each format.
	mf, err := LoadModel(filepath.Join("testdata", "golden", "tiny.ckpt"))
	if err != nil {
		t.Fatalf("loading frozen checkpoint: %v", err)
	}
	engines := map[string]*Engine{}
	if engines["f32"], err = NewEngine(mf, Config{ResidualChans: goldenResidualChans}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, kind := range []quant.Kind{quant.Int8, quant.Q4_0} {
		p := filepath.Join(dir, kind.String()+".orbt")
		if err := ckpt.SaveQuantized(p, mf, kind); err != nil {
			t.Fatal(err)
		}
		mq, qs, err := LoadModelQuantized(p)
		if err != nil {
			t.Fatal(err)
		}
		if engines[kind.String()], err = NewEngine(mq, Config{ResidualChans: goldenResidualChans, Quant: qs}); err != nil {
			t.Fatal(err)
		}
	}
	const rolloutsPerSample = 4
	ic := goldenIC()
	discard := func(_, _ int, _ *tensor.Tensor) {}
	names := []string{"f32", "int8", "q4_0"}
	rollSamples := map[string][]float64{}
	for _, name := range names {
		engines[name].Rollout(ic, goldenSteps, goldenLead, discard) // warm plans
	}
	for r := 0; r < reps; r++ {
		for _, name := range names {
			start := time.Now()
			for i := 0; i < rolloutsPerSample; i++ {
				engines[name].Rollout(ic, goldenSteps, goldenLead, discard)
			}
			rollSamples[name] = append(rollSamples[name], float64(time.Since(start).Nanoseconds())/1e6)
		}
	}
	serving := map[string]any{}
	for _, name := range names {
		ms := median(rollSamples[name])
		serving[name] = map[string]float64{
			"ms_per_rollout": round3(ms / rolloutsPerSample),
			"rollouts_per_s": round3(rolloutsPerSample / (ms / 1e3)),
		}
	}

	// ---- Checkpoint arm: the same model in all three formats.
	mc, err := vit.New(vit.Tiny(3, 8, 16), 3)
	if err != nil {
		t.Fatal(err)
	}
	sizeOf := func(name string, save func(string) error) int64 {
		p := filepath.Join(dir, name)
		if err := save(p); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	f32Bytes := sizeOf("ck_f32.orbt", func(p string) error { return ckpt.Save(p, mc, false) })
	i8Bytes := sizeOf("ck_i8.orbt", func(p string) error { return ckpt.SaveQuantized(p, mc, quant.Int8) })
	q4Bytes := sizeOf("ck_q4.orbt", func(p string) error { return ckpt.SaveQuantized(p, mc, quant.Q4_0) })

	report := map[string]any{
		"bench":     "pr9_block_quantized_inference",
		"date":      time.Now().UTC().Format("2006-01-02"),
		"reps":      reps,
		"benchmark": "f32 vs int8 vs Q4_0: [128,256]@[256,256] matmul (f32 product vs dequant-fused product), frozen golden rollout served end to end, and checkpoint bytes; arms interleaved per round, medians",
		"matmul": map[string]any{
			"shape":                      fmt.Sprintf("[%d,%d] @ [%d,%d]", m0, k0, k0, n0),
			"formats":                    matmul,
			"fused_kernel_allocs_per_op": allocs,
		},
		"serving_rollout": serving,
		"checkpoint_bytes": map[string]any{
			"f32":           f32Bytes,
			"int8":          i8Bytes,
			"q4_0":          q4Bytes,
			"f32_over_int8": round3(float64(f32Bytes) / float64(i8Bytes)),
			"f32_over_q4_0": round3(float64(f32Bytes) / float64(q4Bytes)),
		},
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("benchpr9: wrote %s\n", out)
}

func median(s []float64) float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c[len(c)/2]
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
