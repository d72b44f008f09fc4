package train

import (
	"testing"

	"orbit/internal/climate"
	"orbit/internal/metrics"
	"orbit/internal/vit"
)

func smallData(t *testing.T) (*climate.Dataset, []climate.Variable) {
	t.Helper()
	vars := climate.RegistrySmall()
	w := climate.NewWorld(vars, 8, 16, climate.ERA5Source())
	stats := w.EstimateStats(4)
	return climate.NewDataset(w, stats, 0, 64, 4), vars
}

func tinyCfg() vit.Config {
	c := vit.Tiny(8, 8, 16)
	c.EmbedDim = 16
	c.Heads = 2
	c.Layers = 1
	return c
}

func quickTC() Config {
	tc := DefaultConfig()
	tc.BatchSize = 2
	tc.WarmupSteps = 3
	tc.TotalSteps = 40
	return tc
}

func TestTrainerLossDecreases(t *testing.T) {
	ds, _ := smallData(t)
	m, err := vit.New(tinyCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(m, quickTC())
	curve := tr.Run(ds, 40)
	if len(curve) != 40 {
		t.Fatalf("curve length %d", len(curve))
	}
	early := (curve[0].Loss + curve[1].Loss + curve[2].Loss) / 3
	late := (curve[37].Loss + curve[38].Loss + curve[39].Loss) / 3
	if late >= early {
		t.Errorf("training did not reduce loss: %v -> %v", early, late)
	}
	if tr.Samples() != 80 {
		t.Errorf("Samples = %d, want 80", tr.Samples())
	}
}

func TestTrainerMixedPrecisionRuns(t *testing.T) {
	ds, _ := smallData(t)
	m, err := vit.New(tinyCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	tc := quickTC()
	tc.MixedPrecision = true
	tr := NewTrainer(m, tc)
	curve := tr.Run(ds, 20)
	early := curve[0].Loss
	late := curve[len(curve)-1].Loss
	if late >= early {
		t.Errorf("bf16 training did not reduce loss: %v -> %v", early, late)
	}
	for _, p := range m.Params() {
		if p.W.HasNaNOrInf() {
			t.Fatalf("bf16 training produced NaN in %s", p.Name)
		}
	}
}

func TestPretrainOnCorpus(t *testing.T) {
	corpus := climate.NewPretrainCorpus(climate.RegistrySmall(), 8, 16, climate.CMIP6Sources()[:2], 16, 1)
	tc := quickTC()
	m, curve, err := Pretrain(tinyCfg(), tc, corpus, 25)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || len(curve) != 25 {
		t.Fatal("pretrain outputs malformed")
	}
	if curve[len(curve)-1].Loss >= curve[0].Loss {
		t.Errorf("corpus pretraining did not reduce loss: %v -> %v", curve[0].Loss, curve[len(curve)-1].Loss)
	}
}

func TestFinetuneModelTransfersTrunk(t *testing.T) {
	m, err := vit.New(tinyCfg(), 5)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := FinetuneModel(m, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Config.OutChannels != 2 {
		t.Fatalf("OutChannels = %d", ft.Config.OutChannels)
	}
	// Trunk weights copied: first block attention weights match.
	if ft.Blocks[0].Attn.WQ.Weight.W.MaxAbs() != m.Blocks[0].Attn.WQ.Weight.W.MaxAbs() {
		t.Error("trunk weights not transferred")
	}
	// Head is fresh (different output width).
	if ft.Head.Proj.Out == m.Head.Proj.Out {
		t.Error("head should be rebuilt for the new output width")
	}
}

func TestFinetuningBeatsClimatology(t *testing.T) {
	// A fine-tuned tiny model must achieve positive wACC (better than
	// predicting climatology) at a 1-day lead.
	vars := climate.RegistrySmall()
	w := climate.NewWorld(vars, 8, 16, climate.ERA5Source())
	stats := w.EstimateStats(4)
	chans := []int{1, 2} // t2m, u10 in the small registry
	trainDS := climate.NewDataset(w, stats, 0, 96, 4)
	trainDS.OutputChans = chans
	testDS := climate.NewDataset(w, stats, 200, 16, 4)
	testDS.OutputChans = chans

	cfg := tinyCfg()
	cfg.OutChannels = len(chans)
	m, err := vit.New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	tc := quickTC()
	tc.TotalSteps = 120
	tc.ResidualChans = chans // tendency prediction, as the experiments use
	tr := NewTrainer(m, tc)
	tr.Run(trainDS, 120)

	accs := EvalACC(tr.Forecaster(), testDS, chans, 8)
	if len(accs) != 2 {
		t.Fatalf("ACC count %d", len(accs))
	}
	mean := metrics.MeanACC(accs)
	if mean <= 0.1 {
		t.Errorf("fine-tuned wACC %v should beat climatology (0)", mean)
	}
}
