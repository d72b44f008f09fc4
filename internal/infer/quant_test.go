package infer

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"orbit/internal/ckpt"
	"orbit/internal/metrics"
	"orbit/internal/quant"
	"orbit/internal/tensor"
)

// Golden-rollout wRMSE degradation ceilings for quantized serving:
// the worst per-channel latitude-weighted RMSE, over every rollout
// step, between the quantized engine's predictions and the frozen f32
// golden rollout. Measured on the frozen checkpoint (int8 0.0154,
// Q4_0 0.354 — the seed-initialized golden net's layer norms amplify
// weight noise, so these sit far above what a trained model shows)
// and pinned with ~2x headroom; int8 must stay an order of magnitude
// tighter than Q4_0. A kernel or format change that degrades
// quantized skill walks straight into these.
const (
	int8GoldenWRMSE = 0.03
	q4GoldenWRMSE   = 0.70
)

// rolloutSteps runs the golden rollout configuration through an
// already-built engine, copying out each step's prediction.
func rolloutSteps(t *testing.T, eng *Engine) [][]float32 {
	t.Helper()
	steps := make([][]float32, goldenSteps)
	eng.Rollout(goldenIC(), goldenSteps, goldenLead, func(_, s int, pred *tensor.Tensor) {
		steps[s] = append([]float32(nil), pred.Data()...)
	})
	return steps
}

// TestQuantServingBitIdentity pins the strongest property the fused
// kernel gives us: an engine serving quantized containers produces
// bit-identical rollouts to a plain f32 engine over the dequantized
// model — quantization error lives entirely in the stored weights,
// never in the execution path.
func TestQuantServingBitIdentity(t *testing.T) {
	m, err := LoadModel(filepath.Join("testdata", "golden", "tiny.ckpt"))
	if err != nil {
		t.Fatalf("loading frozen checkpoint: %v", err)
	}
	for _, kind := range []quant.Kind{quant.Int8, quant.Q4_0} {
		qPath := filepath.Join(t.TempDir(), "quant.orbt")
		if err := ckpt.SaveQuantized(qPath, m, kind); err != nil {
			t.Fatal(err)
		}
		mq, qs, err := LoadModelQuantized(qPath)
		if err != nil {
			t.Fatal(err)
		}
		engQ, err := NewEngine(mq, Config{ResidualChans: goldenResidualChans, Quant: qs})
		if err != nil {
			t.Fatal(err)
		}
		engF, err := NewEngine(mq, Config{ResidualChans: goldenResidualChans})
		if err != nil {
			t.Fatal(err)
		}
		got, want := rolloutSteps(t, engQ), rolloutSteps(t, engF)
		for s := range want {
			for i := range want[s] {
				if got[s][i] != want[s][i] {
					t.Fatalf("%s: step %d value %d: quantized engine %v, dequantized f32 engine %v — fused kernel diverged from the f32 product",
						kind, s, i, got[s][i], want[s][i])
				}
			}
		}
	}
}

// TestQuantGoldenDegradation is the quantized skill gate: rollouts
// served from int8 and Q4_0 checkpoints must stay within the pinned
// wRMSE ceilings of the frozen f32 golden rollout, and int8 must beat
// Q4_0.
func TestQuantGoldenDegradation(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "golden", "rollout.json"))
	if err != nil {
		t.Fatalf("missing golden values (run TestGoldenRollout -update first): %v", err)
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(filepath.Join("testdata", "golden", "tiny.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig()

	worst := make(map[quant.Kind]float64)
	for _, tc := range []struct {
		kind    quant.Kind
		ceiling float64
	}{{quant.Int8, int8GoldenWRMSE}, {quant.Q4_0, q4GoldenWRMSE}} {
		qPath := filepath.Join(t.TempDir(), "quant.orbt")
		if err := ckpt.SaveQuantized(qPath, m, tc.kind); err != nil {
			t.Fatal(err)
		}
		mq, qs, err := LoadModelQuantized(qPath)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(mq, Config{ResidualChans: goldenResidualChans, Quant: qs})
		if err != nil {
			t.Fatal(err)
		}
		steps := rolloutSteps(t, eng)
		for s := range steps {
			pred := tensor.FromSlice(steps[s], cfg.OutChannels, cfg.Height, cfg.Width)
			gold := tensor.FromSlice(g.Steps[s], cfg.OutChannels, cfg.Height, cfg.Width)
			for _, r := range metrics.WeightedRMSE(pred, gold) {
				if r > worst[tc.kind] {
					worst[tc.kind] = r
				}
			}
		}
		t.Logf("%s: worst golden-rollout wRMSE degradation %.6f (ceiling %g)", tc.kind, worst[tc.kind], tc.ceiling)
		if worst[tc.kind] > tc.ceiling {
			t.Errorf("%s: golden-rollout wRMSE degradation %.6f exceeds pinned ceiling %g",
				tc.kind, worst[tc.kind], tc.ceiling)
		}
		if worst[tc.kind] == 0 {
			t.Errorf("%s: zero degradation is implausible for a lossy format (test wiring broken?)", tc.kind)
		}
	}
	if worst[quant.Int8] >= worst[quant.Q4_0] {
		t.Errorf("int8 degradation %.6f not tighter than q4_0's %.6f", worst[quant.Int8], worst[quant.Q4_0])
	}
}

// TestQuantPlanAllocs: the steady-state quantized forward allocates
// nothing — the fused kernel's panel scratch comes from pools and the
// plan's workspaces are preallocated, exactly like the f32 path.
func TestQuantPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the plain test job")
	}
	m, err := LoadModel(filepath.Join("testdata", "golden", "tiny.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	qPath := filepath.Join(t.TempDir(), "quant.orbt")
	if err := ckpt.SaveQuantized(qPath, m, quant.Q4_0); err != nil {
		t.Fatal(err)
	}
	mq, qs, err := LoadModelQuantized(qPath)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanQ(mq, 2, qs)
	xs := []*tensor.Tensor{goldenIC(), goldenIC()}
	leads := []float64{goldenLead, goldenLead}
	p.Forward(xs, leads) // prime packing, size-2 headers, pools
	if allocs := testing.AllocsPerRun(10, func() { p.Forward(xs, leads) }); allocs > 0 {
		t.Errorf("quantized steady-state Forward allocates %v times per call, want 0", allocs)
	}
}

// TestQuantTPRejected: the tensor-parallel trunk shards f32 weights,
// so a quantized TP engine must fail loudly at construction.
func TestQuantTPRejected(t *testing.T) {
	m, err := LoadModel(filepath.Join("testdata", "golden", "tiny.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	qs := map[string]*tensor.Quantized{}
	if _, err := NewEngine(m, Config{ResidualChans: goldenResidualChans, TP: 2, Quant: qs}); err == nil {
		t.Error("TP engine accepted quantized containers")
	}
}
