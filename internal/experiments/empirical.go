package experiments

import (
	"fmt"
	"strings"

	"orbit/internal/afno"
	"orbit/internal/baselines"
	"orbit/internal/climate"
	"orbit/internal/metrics"
	"orbit/internal/tensor"
	"orbit/internal/train"
	"orbit/internal/vit"
)

// Scale selects the cost of the empirical (real-training) runs.
type Scale struct {
	// Grid dimensions (powers of two for the AFNO FFT).
	Height, Width int
	// PretrainSteps / FinetuneSteps bound the optimizer steps.
	PretrainSteps, FinetuneSteps int
	// StepsPerSource is the time range drawn from each CMIP6 source.
	StepsPerSource int
	// EvalSamples is the number of held-out samples scored.
	EvalSamples int
	// Sizes are the embed dims of the model ladder standing in for
	// 115M/1B/10B/113B (scaled down, same architecture).
	Sizes []int
}

// QuickScale finishes in seconds — used by tests.
func QuickScale() Scale {
	return Scale{
		Height: 8, Width: 16,
		PretrainSteps: 30, FinetuneSteps: 60, StepsPerSource: 48,
		EvalSamples: 6,
		Sizes:       []int{8, 16, 32},
	}
}

// FullScale is the cmd/bench configuration (minutes on a laptop).
func FullScale() Scale {
	return Scale{
		Height: 16, Width: 32,
		PretrainSteps: 150, FinetuneSteps: 300, StepsPerSource: 256,
		EvalSamples: 12,
		Sizes:       []int{8, 16, 32, 48},
	}
}

// sizeName maps the scaled-down ladder onto the paper's labels.
func sizeName(i int) string {
	names := []string{"115M-scale", "1B-scale", "10B-scale", "113B-scale"}
	if i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("size-%d", i)
}

// ladderConfig builds the i-th model of the scaled ladder.
func ladderConfig(sc Scale, channels, embed int) vit.Config {
	layers := 1
	if embed >= 32 {
		layers = 2
	}
	return vit.Config{
		Name: fmt.Sprintf("orbit-e%d", embed), Channels: channels, OutChannels: channels,
		Height: sc.Height, Width: sc.Width, Patch: 4,
		EmbedDim: embed, Layers: layers, Heads: 4, QKNorm: true,
	}
}

// Fig8Curve is one model size's pre-training loss trajectory.
type Fig8Curve struct {
	Name   string
	Params int64
	Points []train.LossPoint
}

// Fig8 pre-trains the model-size ladder on the ten-source CMIP6-like
// corpus with a shared batch size and records wMSE versus samples —
// the paper's data-efficiency comparison (its larger models overtake
// smaller ones after ~2 M samples; the scaled ladder shows the same
// ordering in miniature).
func Fig8(sc Scale) []Fig8Curve {
	vars := climate.RegistrySmall()
	corpus := climate.NewPretrainCorpus(vars, sc.Height, sc.Width, climate.CMIP6Sources(), sc.StepsPerSource, 4)
	var curves []Fig8Curve
	for i, embed := range sc.Sizes {
		cfg := ladderConfig(sc, len(vars), embed)
		tc := train.DefaultConfig()
		tc.TotalSteps = sc.PretrainSteps
		tc.WarmupSteps = sc.PretrainSteps / 10
		tc.Seed = 7
		m, curve, err := train.Pretrain(cfg, tc, corpus, sc.PretrainSteps)
		if err != nil {
			panic(err)
		}
		curves = append(curves, Fig8Curve{Name: sizeName(i), Params: m.NumParams(), Points: curve})
	}
	return curves
}

// FormatFig8 renders loss-vs-samples checkpoints.
func FormatFig8(curves []Fig8Curve) string {
	var b strings.Builder
	b.WriteString("Fig. 8 — pre-training wMSE vs samples (scaled model ladder, 10 CMIP6-like sources)\n")
	for _, c := range curves {
		fmt.Fprintf(&b, "%-12s (%7d params):", c.Name, c.Params)
		step := len(c.Points) / 6
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(c.Points); i += step {
			fmt.Fprintf(&b, "  %d:%.4f", c.Points[i].Samples, c.Points[i].Loss)
		}
		fmt.Fprintf(&b, "  final:%.4f\n", c.Points[len(c.Points)-1].Loss)
	}
	b.WriteString("paper: larger models converge faster per sample, overtaking after ~2M samples\n")
	return b.String()
}

// Fig9Result holds wACC per variable for one model at one lead.
type Fig9Result struct {
	Model    string
	LeadDays int
	// ACC is keyed by output variable name (z500, t850, t2m, u10
	// stand-ins).
	ACC map[string]float64
	// Offered is false where the paper's comparison lacks the entry
	// (FourCastNet has no 14/30-day forecasts).
	Offered bool
}

// fig9Vars returns the four paper output variables' indices in the
// small registry.
func fig9Vars(vars []climate.Variable) (names []string, idx []int) {
	for _, n := range []string{"geopotential_500", "temperature_850", "t2m", "u10"} {
		i := climate.IndexOf(vars, n)
		if i < 0 {
			panic("experiments: missing fig9 variable " + n)
		}
		names = append(names, n)
		idx = append(idx, i)
	}
	return names, idx
}

// Fig9 runs the forecast-skill comparison: ORBIT (pre-trained on ten
// sources, fine-tuned multi-lead), a ClimaX-like ablation (no QK-norm,
// five pre-training sources), a FourCastNet-like AFNO (single-step,
// ERA5-only, evaluated at 1 day by rollout), and the IFS-like
// numerical surrogate — each scored by wACC on held-out "2020" data
// at 1-, 14- and 30-day leads.
func Fig9(sc Scale) []Fig9Result {
	vars := climate.RegistrySmall()
	names, chans := fig9Vars(vars)
	leads := []int{1, 14, 30}
	leadSteps := func(days int) int { return days * climate.StepsPerDay }

	era := climate.NewWorld(vars, sc.Height, sc.Width, climate.ERA5Source())
	stats := era.EstimateStats(8)
	// Train on "1979–2018", evaluate on "2020" (a disjoint window).
	trainStart, trainSteps := 0, sc.StepsPerSource*3
	testStart := trainStart + trainSteps + 120

	testSet := func(days int) *climate.Dataset {
		ds := climate.NewDataset(era, stats, testStart, sc.EvalSamples*8, leadSteps(days))
		ds.OutputChans = chans
		return ds
	}

	var results []Fig9Result

	// --- ORBIT and the ClimaX-like ablation ---
	type vitSpec struct {
		name    string
		qkNorm  bool
		sources []climate.Source
		steps   int
	}
	specs := []vitSpec{
		{"ORBIT", true, climate.CMIP6Sources(), sc.PretrainSteps},
		{"ClimaX", false, climate.CMIP6Sources()[:5], sc.PretrainSteps / 2},
	}
	allChans := make([]int, len(vars))
	for i := range allChans {
		allChans[i] = i
	}
	for _, spec := range specs {
		corpus := climate.NewPretrainCorpus(vars, sc.Height, sc.Width, spec.sources, sc.StepsPerSource, 4)
		cfg := ladderConfig(sc, len(vars), sc.Sizes[len(sc.Sizes)-1])
		cfg.QKNorm = spec.qkNorm
		tc := train.DefaultConfig()
		tc.TotalSteps = spec.steps + sc.FinetuneSteps
		tc.Seed = 11
		// Both pre-training and fine-tuning predict tendencies
		// (state change), the GraphCast/FourCastNet convention that
		// makes the anomaly signal learnable at small scale.
		tcPre := tc
		tcPre.ResidualChans = allChans
		pre, _, err := train.Pretrain(cfg, tcPre, corpus, spec.steps)
		if err != nil {
			panic(err)
		}
		// Fine-tune one specialist per lead from the shared pre-trained
		// trunk, as ClimaX fine-tunes per task with tailored settings;
		// the fine-tuning budget is split across the three leads.
		rng := tensor.NewRNG(13)
		for _, d := range leads {
			ft, err := train.FinetuneModel(pre, len(chans), 12)
			if err != nil {
				panic(err)
			}
			tcFT := tc
			tcFT.ResidualChans = chans
			tcFT.TotalSteps = sc.FinetuneSteps / len(leads)
			tcFT.WarmupSteps = tcFT.TotalSteps / 10
			tr := train.NewTrainer(ft, tcFT)
			ds := climate.NewDataset(era, stats, trainStart, trainSteps, leadSteps(d))
			ds.OutputChans = chans
			for s := 0; s < tcFT.TotalSteps; s++ {
				batch := make([]climate.Sample, 0, tc.BatchSize)
				for len(batch) < tc.BatchSize {
					batch = append(batch, ds.At(rng.Intn(ds.Len())))
				}
				tr.Step(batch)
			}
			ts := testSet(d)
			accs := train.EvalACC(tr.Forecaster(), ts, chans, sc.EvalSamples)
			res := Fig9Result{Model: spec.name, LeadDays: d, ACC: map[string]float64{}, Offered: true}
			for i, n := range names {
				res.ACC[n] = accs[i]
			}
			results = append(results, res)
		}
	}

	// --- FourCastNet-like AFNO: single-step training, 1-day rollout ---
	afnoCfg := afno.Tiny(len(vars), sc.Height, sc.Width)
	fcModel := afno.New(afnoCfg, 21)
	opt := fcModel.NewOptimizer(0)
	stepDS := climate.NewDataset(era, stats, trainStart, trainSteps, 1)
	rng := tensor.NewRNG(22)
	for s := 0; s < sc.FinetuneSteps+sc.PretrainSteps; s++ {
		smp := stepDS.At(rng.Intn(stepDS.Len()))
		pred := fcModel.Forward(smp.Input)
		_, grad := metrics.WeightedMSE(pred, smp.Target)
		fcModel.ZeroGrads()
		fcModel.Backward(grad)
		opt.Step(2e-3)
	}
	for _, d := range leads {
		res := Fig9Result{Model: "FourCastNet", LeadDays: d, ACC: map[string]float64{}}
		if d == 1 {
			res.Offered = true
			ts := testSet(1)
			sums := make([]float64, len(chans))
			for i := 0; i < sc.EvalSamples; i++ {
				idx := i * (ts.Len() / sc.EvalSamples)
				clim := ts.NormalizedClimatologyAt(idx, chans)
				smp := ts.At(idx)
				pred := climate.SelectChannels(fcModel.Rollout(smp.Input, leadSteps(1)), chans)
				for c, a := range metrics.WeightedACC(pred, smp.Target, clim) {
					sums[c] += a
				}
			}
			for i, n := range names {
				res.ACC[n] = sums[i] / float64(sc.EvalSamples)
			}
		}
		results = append(results, res)
	}

	// --- IFS-like numerical surrogate, tuned per lead on training
	// data (as operational systems are verified and tuned per
	// forecast horizon) ---
	for _, d := range leads {
		fitDS := climate.NewDataset(era, stats, trainStart, trainSteps, leadSteps(d))
		ifs := baselines.FitIFS(fitDS, 8)
		ts := testSet(d)
		sums := make([]float64, len(chans))
		for i := 0; i < sc.EvalSamples; i++ {
			idx := i * (ts.Len() / sc.EvalSamples)
			clim := ts.NormalizedClimatologyAt(idx, chans)
			smp := ts.At(idx)
			pred := climate.SelectChannels(ifs.Predict(smp.Input, leadSteps(d)), chans)
			for c, a := range metrics.WeightedACC(pred, smp.Target, clim) {
				sums[c] += a
			}
		}
		res := Fig9Result{Model: "IFS", LeadDays: d, ACC: map[string]float64{}, Offered: true}
		for i, n := range names {
			res.ACC[n] = sums[i] / float64(sc.EvalSamples)
		}
		results = append(results, res)
	}
	return results
}

// FormatFig9 renders the skill comparison.
func FormatFig9(results []Fig9Result) string {
	var b strings.Builder
	b.WriteString("Fig. 9 — wACC by model, variable and lead (synthetic ERA5 test year)\n")
	fmt.Fprintf(&b, "%-12s  %5s  %8s  %8s  %8s  %8s\n", "model", "lead", "z500", "t850", "t2m", "u10")
	for _, r := range results {
		if !r.Offered {
			fmt.Fprintf(&b, "%-12s  %4dd  %8s  %8s  %8s  %8s\n", r.Model, r.LeadDays, "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%-12s  %4dd  %8.3f  %8.3f  %8.3f  %8.3f\n", r.Model, r.LeadDays,
			r.ACC["geopotential_500"], r.ACC["temperature_850"], r.ACC["t2m"], r.ACC["u10"])
	}
	b.WriteString("paper: ORBIT ≥ comparators at 14/30 days; competitive at 1 day; FourCastNet offers 1-day only\n")
	return b.String()
}

// Fig10Row records the fine-tuning data efficiency of one model size.
type Fig10Row struct {
	Name    string
	Params  int64
	Samples int
}

// Fig10 measures the number of fine-tuning samples each model size
// needs to reach a common forecast-skill target after identical
// pre-training budgets — the paper's data-efficiency result (115M:
// ≈76k, 1B: ≈47k, 10B: ≈32.8k samples on the 30-day task; the scaled
// ladder shows the same downward trend). Substitution: at laptop
// scale the 30-day task saturates at persistence for every size, so
// the measurement runs on the 1-day task, where the same
// size-vs-data-efficiency mechanism is observable.
func Fig10(sc Scale) []Fig10Row {
	vars := climate.RegistrySmall()
	_, chans := fig9Vars(vars)
	corpus := climate.NewPretrainCorpus(vars, sc.Height, sc.Width, climate.CMIP6Sources(), sc.StepsPerSource, 4)
	era := climate.NewWorld(vars, sc.Height, sc.Width, climate.ERA5Source())
	stats := era.EstimateStats(8)
	lead := 1 * climate.StepsPerDay

	ftTrain := climate.NewDataset(era, stats, 0, sc.StepsPerSource*3, lead)
	ftTrain.OutputChans = chans
	ftVal := climate.NewDataset(era, stats, sc.StepsPerSource*3+120, sc.EvalSamples*4, lead)
	ftVal.OutputChans = chans

	var rows []Fig10Row
	sizes := sc.Sizes
	if len(sizes) > 3 {
		sizes = sizes[:3] // the paper measures 115M, 1B, 10B
	}
	allChans := make([]int, len(vars))
	for i := range allChans {
		allChans[i] = i
	}
	for i, embed := range sizes {
		cfg := ladderConfig(sc, len(vars), embed)
		tc := train.DefaultConfig()
		tc.TotalSteps = sc.PretrainSteps + sc.FinetuneSteps
		tc.Seed = 31
		tcPre := tc
		tcPre.ResidualChans = allChans
		pre, _, err := train.Pretrain(cfg, tcPre, corpus, sc.PretrainSteps)
		if err != nil {
			panic(err)
		}
		ft, err := train.FinetuneModel(pre, len(chans), 32)
		if err != nil {
			panic(err)
		}
		tcFT := tc
		tcFT.ResidualChans = chans
		tr := train.NewTrainer(ft, tcFT)
		n := train.SamplesToTarget(tr, ftTrain, ftVal, chans, 0.55, 3, sc.FinetuneSteps)
		rows = append(rows, Fig10Row{Name: sizeName(i), Params: ft.NumParams(), Samples: n})
	}
	return rows
}

// FormatFig10 renders the data-efficiency comparison.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	b.WriteString("Fig. 10 — fine-tuning samples to reach the common wACC target\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s  %8d params  %6d samples\n", r.Name, r.Params, r.Samples)
	}
	b.WriteString("paper: 115M ≈ 76k, 1B ≈ 47k, 10B ≈ 32.8k — need decreases with size\n")
	return b.String()
}
