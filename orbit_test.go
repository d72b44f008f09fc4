package orbit

import (
	"path/filepath"
	"sync"
	"testing"

	"orbit/internal/metrics"
	"orbit/internal/tensor"
)

func TestPublicModelLifecycle(t *testing.T) {
	cfg := TinyConfig(4, 8, 16)
	m, err := NewModel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumParams() != ParamCount(cfg) {
		t.Error("ParamCount disagrees with the built model")
	}
	path := filepath.Join(t.TempDir(), "m.orbt")
	if err := SaveModel(path, m, true); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Config != m.Config {
		t.Error("checkpoint config mismatch")
	}
}

func TestPublicPaperConfigs(t *testing.T) {
	if ParamCount(ORBIT113B) < 90e9 {
		t.Errorf("ORBIT113B params %d", ParamCount(ORBIT113B))
	}
	if len(Registry91()) != 91 || len(Registry48()) != 48 {
		t.Error("registry sizes wrong")
	}
}

func TestPublicTrainingPath(t *testing.T) {
	vars := RegistrySmall()
	corpus := NewPretrainCorpus(vars, 8, 16, 16, 1)
	tc := DefaultTrainConfig()
	tc.BatchSize = 2
	tc.TotalSteps = 10
	m, curve, err := Pretrain(TinyConfig(len(vars), 8, 16), tc, corpus, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 10 {
		t.Fatalf("curve %d", len(curve))
	}
	ft, err := FinetuneModel(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewERA5Dataset(vars, 8, 16, 0, 16, 4)
	ds.OutputChans = []int{1, 2}
	accs := EvalACC(Forecaster{Model: ft}, ds, []int{1, 2}, 4)
	if len(accs) != 2 {
		t.Fatalf("accs %v", accs)
	}
}

func TestPublicScalingAPI(t *testing.T) {
	if MaxModelSize(HybridSTOP, 512) <= MaxModelSize(FSDPOnly, 512) {
		t.Error("Hybrid-STOP should scale beyond FSDP")
	}
	t512 := TimePerSample(ORBIT10B, 512)
	t49k := TimePerSample(ORBIT10B, 49152)
	if t49k >= t512 {
		t.Errorf("scaling up should reduce time: %v -> %v", t512, t49k)
	}
}

func TestPublicClusterAndHybridSTOP(t *testing.T) {
	m := NewCluster(1)
	if len(m.Devices) != 8 {
		t.Fatalf("%d devices", len(m.Devices))
	}
	layout := Layout{TP: 2, FSDP: 2, DDP: 1}
	groups, err := BuildGroups(layout, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("%d group views", len(groups))
	}
	// Smoke-run one Hybrid-STOP step through the public surface.
	engines := buildPublicEngines(t, layout, m, groups)
	rng := tensor.NewRNG(3)
	xs := []*tensor.Tensor{tensor.Randn(rng, 1, 4, 8), tensor.Randn(rng, 1, 4, 8)}
	targets := []*tensor.Tensor{tensor.Randn(rng, 1, 4, 8), tensor.Randn(rng, 1, 4, 8)}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := layout.CoordOf(rank)
			y, err := engines[rank].Forward(xs[c.F])
			if err != nil {
				t.Error(err)
				return
			}
			grad := tensor.SubInto(tensor.New(y.Shape()...), y, targets[c.F])
			grad.ScaleInPlace(2.0 / float32(y.Len()))
			if _, err := engines[rank].Backward(grad); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
}

func TestPublicMetricsAccessible(t *testing.T) {
	// The metrics package is internal but its effects surface through
	// EvalACC; here we sanity-check the latitude weighting contract
	// the public docs promise.
	w := metrics.LatitudeWeights(16)
	var sum float64
	for _, v := range w {
		sum += v
	}
	if sum/16 < 0.999 || sum/16 > 1.001 {
		t.Error("latitude weights must average to 1")
	}
}
