package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestFig5ShapeMatchesPaper(t *testing.T) {
	rows := Fig5()
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	last := rows[len(rows)-1]
	if last.GPUs != 512 {
		t.Fatalf("last row GPUs %d", last.GPUs)
	}
	// The paper's ordering at scale: Hybrid-STOP > TP > FSDP.
	if !(last.Hybrid > last.TP && last.TP > last.FSDP) {
		t.Errorf("ordering at 512 GPUs: hybrid %d, tp %d, fsdp %d", last.Hybrid, last.TP, last.FSDP)
	}
	// Hybrid-STOP must accommodate the 143 B the paper demonstrates.
	if last.Hybrid < 143e9 {
		t.Errorf("Hybrid-STOP cap %d below the demonstrated 143 B", last.Hybrid)
	}
	out := FormatFig5(rows)
	if !strings.Contains(out, "Hybrid-STOP") {
		t.Error("format output malformed")
	}
}

func TestTableIPattern(t *testing.T) {
	rows := TableI()
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	if !rows[0].OOM {
		t.Error("no-optimization column must OOM")
	}
	prev := 1e18
	for _, r := range rows[1:] {
		if r.OOM {
			t.Fatalf("%s unexpectedly OOM", r.Name)
		}
		if r.Walltime >= prev {
			t.Errorf("%s: walltime %v did not improve on %v", r.Name, r.Walltime, prev)
		}
		// Within 2× of the paper's value.
		if r.Walltime < r.Paper/2 || r.Walltime > r.Paper*2 {
			t.Errorf("%s: %0.3f s vs paper %0.2f s", r.Name, r.Walltime, r.Paper)
		}
		prev = r.Walltime
	}
	out := FormatTableI(rows)
	if !strings.Contains(out, "OOM") {
		t.Error("format should show the OOM column")
	}
}

func TestFig6SweepShape(t *testing.T) {
	rows := Fig6()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Find the fastest feasible configuration; the paper's optimum is
	// FSDP 64 × TP 8.
	best := -1
	for i, r := range rows {
		if r.OOM {
			continue
		}
		if best < 0 || r.Walltime < rows[best].Walltime {
			best = i
		}
	}
	if best < 0 {
		t.Fatal("every configuration OOMed")
	}
	if rows[best].TP < 2 || rows[best].TP > 32 {
		t.Errorf("optimum at TP=%d, paper's optimum is TP=8", rows[best].TP)
	}
	// The TP=1 extreme is FSDP alone and must OOM (paper: "ran out of
	// memory when using either FSDP or tensor parallelism alone").
	if !rows[0].OOM {
		t.Error("TP=1 (FSDP alone) should OOM on the 113 B model")
	}
	// The TP=256 extreme runs but far slower than the optimum
	// (paper: 25× slower than FSDP 64 × TP 8).
	last := rows[len(rows)-1]
	if last.TP == 256 && !last.OOM {
		if ratio := last.Walltime / rows[best].Walltime; ratio < 5 {
			t.Errorf("TP=256 only %.1f× slower than optimum; paper reports ≈25×", ratio)
		}
	}
	FormatFig6(rows)
}

func TestFig7Bands(t *testing.T) {
	for _, channels := range []int{48, 91} {
		rows := Fig7(channels)
		if len(rows) != 4*8 {
			t.Fatalf("%d rows", len(rows))
		}
		for _, r := range rows {
			if r.GPUs == 512 && (r.Efficiency < 0.999 || r.Efficiency > 1.001) {
				t.Errorf("%s: baseline efficiency %v != 1", r.Model, r.Efficiency)
			}
			if r.GPUs == 49152 && (r.Efficiency < 0.41 || r.Efficiency > 0.95) {
				t.Errorf("%s (%dch): efficiency %0.2f at 49k outside the paper band", r.Model, channels, r.Efficiency)
			}
			if r.TimePerObs <= 0 {
				t.Errorf("%s: nonpositive time", r.Model)
			}
		}
		FormatFig7(rows)
	}
}

func TestFig7NinetyOneChannelsSlower(t *testing.T) {
	r48 := Fig7(48)
	r91 := Fig7(91)
	for i := range r48 {
		if r48[i].GPUs == 49152 && r91[i].TimePerObs <= r48[i].TimePerObs {
			t.Errorf("%s at 49k: 91ch %0.2e not slower than 48ch %0.2e",
				r48[i].Model, r91[i].TimePerObs, r48[i].TimePerObs)
		}
	}
}

func TestFig8LargerModelsLearnFaster(t *testing.T) {
	curves := Fig8(QuickScale())
	if len(curves) != 3 {
		t.Fatalf("%d curves", len(curves))
	}
	// Sizes ascend.
	for i := 1; i < len(curves); i++ {
		if curves[i].Params <= curves[i-1].Params {
			t.Fatalf("ladder not ascending: %d then %d", curves[i-1].Params, curves[i].Params)
		}
	}
	// The paper's qualitative claim: after the same sample budget the
	// largest model's loss is at or below the smallest's.
	final := func(c Fig8Curve) float64 { return c.Points[len(c.Points)-1].Loss }
	small, large := final(curves[0]), final(curves[len(curves)-1])
	if large > small*1.1 {
		t.Errorf("largest model loss %v should not trail smallest %v", large, small)
	}
	// Every curve actually trained (loss fell).
	for _, c := range curves {
		if final(c) >= c.Points[0].Loss {
			t.Errorf("%s: loss did not fall (%v -> %v)", c.Name, c.Points[0].Loss, final(c))
		}
	}
	FormatFig8(curves)
}

func TestFig9SkillComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9 trains four models")
	}
	results := Fig9(QuickScale())
	// Four models × three leads.
	if len(results) != 12 {
		t.Fatalf("%d results", len(results))
	}
	// FourCastNet offers only the 1-day forecast, as in the paper.
	for _, r := range results {
		if r.Model == "FourCastNet" && r.LeadDays > 1 && r.Offered {
			t.Error("FourCastNet must not offer 14/30-day forecasts")
		}
	}
	// meanACC[model][lead] is the wACC averaged over the variables.
	meanACC := map[string]map[int]float64{}
	for _, r := range results {
		if meanACC[r.Model] == nil {
			meanACC[r.Model] = map[int]float64{}
		}
		for _, v := range r.ACC {
			meanACC[r.Model][r.LeadDays] += v / float64(len(r.ACC))
		}
	}
	// ORBIT must clearly beat climatology (0) at the 1-day lead.
	a1, ok := meanACC["ORBIT"][1]
	if !ok {
		t.Fatal("missing ORBIT at 1d")
	}
	if a1 <= 0.3 {
		t.Errorf("ORBIT 1-day wACC %v should be well above climatology", a1)
	}
	// Skill decays with lead (forecasting is genuinely harder at
	// longer leads on the synthetic dynamics).
	a30 := meanACC["ORBIT"][30]
	if a30 >= a1 {
		t.Errorf("ORBIT wACC should decay with lead: %v at 1d vs %v at 30d", a1, a30)
	}
	// ORBIT (10 pre-training sources, QK-norm) stays within noise of
	// the ClimaX ablation at quick scale; the full-scale run recorded
	// in EXPERIMENTS.md shows the separation.
	var orbitMean, climaxMean float64
	for _, d := range []int{1, 14, 30} {
		orbitMean += meanACC["ORBIT"][d]
		climaxMean += meanACC["ClimaX"][d]
	}
	if orbitMean < climaxMean-0.3 {
		t.Errorf("ORBIT mean wACC %v far below ClimaX %v", orbitMean/3, climaxMean/3)
	}
	FormatFig9(results)
}

func TestFig10Decreasing(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 trains three models")
	}
	rows := Fig10(QuickScale())
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Samples <= 0 {
			t.Errorf("%s: nonpositive sample count", r.Name)
		}
	}
	// Quick scale only checks the harness runs end to end; the
	// size-vs-samples trend is measured by the full-scale run
	// recorded in EXPERIMENTS.md (convergence detection needs more
	// than a handful of evaluation points to be meaningful).
	FormatFig10(rows)
}

// TestParseScale pins the -scale values the commands accept: exactly
// "quick" and "full"; anything else is an error naming the flag.
func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		name string
		want Scale
		ok   bool
	}{
		{"quick", QuickScale(), true},
		{"full", FullScale(), true},
		{"", Scale{}, false},
		{"fulll", Scale{}, false},
		{"Full", Scale{}, false},
		{"quick ", Scale{}, false},
		{"medium", Scale{}, false},
	} {
		sc, err := ParseScale(c.name)
		if c.ok != (err == nil) || err != nil && !strings.Contains(err.Error(), "-scale") {
			t.Errorf("ParseScale(%q) error %v, want ok=%v or an error naming -scale", c.name, err, c.ok)
		}
		if !reflect.DeepEqual(sc, c.want) {
			t.Errorf("ParseScale(%q) = %+v, want %+v", c.name, sc, c.want)
		}
	}
}
