package climate

import (
	"math"
	"testing"

	"orbit/internal/tensor"
)

func TestRegistrySizes(t *testing.T) {
	if n := len(Registry91()); n != 91 {
		t.Errorf("Registry91 has %d variables, want 91", n)
	}
	if n := len(Registry48()); n != 48 {
		t.Errorf("Registry48 has %d variables, want 48", n)
	}
	if n := len(RegistrySmall()); n != 8 {
		t.Errorf("RegistrySmall has %d variables, want 8", n)
	}
}

func TestRegistry91Composition(t *testing.T) {
	var static, surface, atmos int
	for _, v := range Registry91() {
		switch v.Kind {
		case Static:
			static++
		case Surface:
			surface++
		case Atmospheric:
			atmos++
		}
	}
	if static != 3 || surface != 3 || atmos != 85 {
		t.Errorf("composition static=%d surface=%d atmos=%d, want 3/3/85", static, surface, atmos)
	}
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, v := range Registry91() {
		if seen[v.Name] {
			t.Fatalf("duplicate variable %q", v.Name)
		}
		seen[v.Name] = true
	}
}

func TestCMIP6SourcesDistinct(t *testing.T) {
	srcs := CMIP6Sources()
	if len(srcs) != 10 {
		t.Fatalf("%d sources, want 10", len(srcs))
	}
	seeds := map[uint64]bool{}
	for _, s := range srcs {
		if seeds[s.Seed] {
			t.Fatalf("duplicate seed %d", s.Seed)
		}
		seeds[s.Seed] = true
	}
}

func newTestWorld() *World {
	return NewWorld(RegistrySmall(), 16, 32, ERA5Source())
}

func TestWorldDeterministic(t *testing.T) {
	w1 := newTestWorld()
	w2 := newTestWorld()
	f1 := w1.Field(100)
	f2 := w2.Field(100)
	if !tensor.AllClose(f1, f2, 0, 0) {
		t.Error("same world parameters must generate identical fields")
	}
}

func TestWorldFieldsEvolve(t *testing.T) {
	w := newTestWorld()
	f0 := w.Field(0)
	f1 := w.Field(1)
	if tensor.AllClose(f0, f1, 1e-9, 1e-9) {
		t.Error("fields should change between time steps")
	}
}

func TestStaticVariablesFrozen(t *testing.T) {
	w := newTestWorld()
	f0 := w.Field(0)
	f1 := w.Field(1000)
	hw := 16 * 32
	// Channel 0 is the static land_sea_mask.
	for i := 0; i < hw; i++ {
		if f0.Data()[i] != f1.Data()[i] {
			t.Fatal("static variable changed over time")
		}
	}
}

func TestWorldTemporalContinuity(t *testing.T) {
	// Consecutive 6-hour states must be much closer than states a
	// month apart — otherwise there is nothing to forecast.
	w := newTestWorld()
	f0 := w.Field(0)
	f1 := w.Field(1)
	f120 := w.Field(120)
	near := tensor.MaxDiff(f0, f1)
	far := tensor.MaxDiff(f0, f120)
	if near >= far {
		t.Errorf("6h diff %v should be < 30d diff %v", near, far)
	}
}

func TestSourcesDiffer(t *testing.T) {
	vars := RegistrySmall()
	srcs := CMIP6Sources()
	w1 := NewWorld(vars, 8, 16, srcs[0])
	w2 := NewWorld(vars, 8, 16, srcs[1])
	if tensor.AllClose(w1.Field(0), w2.Field(0), 1e-6, 1e-6) {
		t.Error("different sources should produce different fields")
	}
}

func TestStatsNormalize(t *testing.T) {
	w := newTestWorld()
	stats := w.EstimateStats(8)
	f := w.Field(37)
	orig := f.Clone()
	stats.Normalize(f)
	// Normalized fields should be O(1).
	if f.MaxAbs() > 25 {
		t.Errorf("normalized field max %v, want O(1)", f.MaxAbs())
	}
	// Each channel is shifted by its mean and divided by its std.
	hw := f.Dim(1) * f.Dim(2)
	for i, v := range f.Data() {
		c := i / hw
		want := (float64(orig.Data()[i]) - stats.Mean[c]) / stats.Std[c]
		if math.Abs(float64(v)-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("channel %d element %d: normalized %v, want %v", c, i%hw, v, want)
		}
	}
}

func TestStatsReasonableForT2M(t *testing.T) {
	w := NewWorld(Registry48(), 8, 16, ERA5Source())
	stats := w.EstimateStats(8)
	i := IndexOf(w.Vars, "t2m")
	if stats.Mean[i] < 230 || stats.Mean[i] > 320 {
		t.Errorf("t2m mean %v K implausible", stats.Mean[i])
	}
	if stats.Std[i] <= 0 {
		t.Errorf("t2m std %v", stats.Std[i])
	}
}

func TestDatasetSampleShapes(t *testing.T) {
	w := newTestWorld()
	stats := w.EstimateStats(4)
	ds := NewDataset(w, stats, 0, 10, 4)
	s := ds.At(3)
	if s.Input.Dim(0) != 8 || s.Input.Dim(1) != 16 || s.Input.Dim(2) != 32 {
		t.Fatalf("input shape %v", s.Input.Shape())
	}
	if !s.Input.SameShape(s.Target) {
		t.Fatal("full-state target shape mismatch")
	}
	if s.LeadHours != 24 {
		t.Errorf("lead = %v hours, want 24", s.LeadHours)
	}
}

func TestDatasetOutputChannelSubset(t *testing.T) {
	w := newTestWorld()
	stats := w.EstimateStats(4)
	ds := NewDataset(w, stats, 0, 10, 4)
	ds.OutputChans = []int{1, 3}
	s := ds.At(0)
	if s.Target.Dim(0) != 2 {
		t.Fatalf("target channels %d, want 2", s.Target.Dim(0))
	}
	// Channel 0 of target equals channel 1 of a full render.
	full := ds.World.Field(ds.StartStep + ds.LeadSteps)
	ds.Stats.Normalize(full)
	want := SelectChannels(full, []int{1, 3})
	if !tensor.AllClose(s.Target, want, 1e-6, 1e-6) {
		t.Error("SelectChannels target mismatch")
	}
}

func TestDatasetIndexOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w := newTestWorld()
	NewDataset(w, w.EstimateStats(2), 0, 5, 1).At(5)
}

func TestPretrainCorpusInterleaves(t *testing.T) {
	corpus := NewPretrainCorpus(RegistrySmall(), 8, 16, CMIP6Sources()[:3], 4, 1)
	if corpus.Len() != 12 {
		t.Fatalf("corpus len %d, want 12", corpus.Len())
	}
	// Samples 0,1,2 come from different sources: their (dynamic)
	// fields must differ.
	s0 := corpus.At(0)
	s1 := corpus.At(1)
	if tensor.AllClose(s0.Input, s1.Input, 1e-6, 1e-6) {
		t.Error("adjacent corpus samples should come from different sources")
	}
}

func TestClimatologyCloseToTimeMean(t *testing.T) {
	w := newTestWorld()
	clim := w.Climatology()
	// Average many samples over a full year: waves/season/noise are
	// zero-mean so the empirical mean approaches the climatology.
	mean := tensor.New(8, 16, 32)
	const n = 120
	for i := 0; i < n; i++ {
		mean.AddInPlace(w.Field(i * (365 * StepsPerDay / n)))
	}
	mean.ScaleInPlace(1.0 / n)
	// Compare on a dynamic channel (t2m = channel 1) in units of its
	// wave amplitude.
	hw := 16 * 32
	var worst float64
	for i := hw; i < 2*hw; i++ {
		d := math.Abs(float64(mean.Data()[i]) - float64(clim.Data()[i]))
		if d > worst {
			worst = d
		}
	}
	amp := w.Vars[1].Physics.WaveAmp + w.Vars[1].Physics.SeasonalAmp
	if worst > 0.5*amp {
		t.Errorf("climatology deviates from empirical mean by %v (amp %v)", worst, amp)
	}
}

// allWorlds is every (registry, source) pair the generator serves, on
// a height × width grid.
func allWorlds(height, width int) []*World {
	var ws []*World
	for _, vars := range [][]Variable{RegistrySmall(), Registry48(), Registry91()} {
		for _, src := range append(CMIP6Sources(), ERA5Source()) {
			ws = append(ws, NewWorld(vars, height, width, src))
		}
	}
	return ws
}

// A Static channel never changes, so its anomaly against the
// climatology must be exactly zero for every source, biased or not.
func TestStaticClimatologyIsItsField(t *testing.T) {
	for _, w := range allWorlds(8, 16) {
		clim, hw := w.Climatology().Data(), w.Height*w.Width
		for _, step := range []int{0, 1234} {
			f := w.Field(step).Data()
			for vi, v := range w.Vars {
				if v.Kind != Static {
					continue
				}
				for i := vi * hw; i < (vi+1)*hw; i++ {
					if math.Float32bits(clim[i]) != math.Float32bits(f[i]) {
						t.Fatalf("%s/%d vars: %s climatology %v != field %v at step %d",
							w.Source.Name, len(w.Vars), v.Name, clim[i], f[i], step)
					}
				}
			}
		}
	}
}

// value is the generator's closed form at grid point (row, col) and
// time step (6-hourly index), every term recomputed at the point: the
// reference Field's tables must reproduce bit for bit.
func (w *World) value(vi, row, col, step int) float64 {
	v := &w.Vars[vi]
	days := float64(step) / StepsPerDay
	lat := -math.Pi/2 + (float64(row)+0.5)*math.Pi/float64(w.Height)
	lon := 2 * math.Pi * float64(col) / float64(w.Width)

	// Zonal-mean climatology: equator-to-pole gradient.
	val := v.Physics.BaseMean - v.Physics.PoleDrop*math.Pow(math.Sin(lat), 2)

	if v.Kind == Static {
		// Static fields: frozen "geography" from the wave components.
		for _, wp := range w.waves[vi] {
			val += wp.amp * math.Sin(float64(wp.zonalWavenumber)*lon+wp.phase) *
				math.Cos(float64(wp.meridionalMode)*lat)
		}
		return val
	}

	// Annual cycle, antisymmetric across hemispheres (seasons flip).
	season := math.Sin(2*math.Pi*days/365.25) * math.Sin(lat)
	val += v.Physics.SeasonalAmp * season * w.Source.AmpScale

	// Travelling waves: the predictable anomaly signal.
	for _, wp := range w.waves[vi] {
		env := math.Cos(lat) * math.Cos(float64(wp.meridionalMode)*lat)
		val += wp.amp * env * math.Sin(float64(wp.zonalWavenumber)*lon-wp.speed*days+wp.phase)
	}

	// Fast smooth pseudo-noise: hard to predict at long leads.
	for _, nm := range w.noise[vi] {
		val += nm.amp * math.Sin(float64(nm.kx)*lon+nm.phaseX+nm.freq*days) *
			math.Sin(float64(nm.ky)*(lat+math.Pi/2))
	}

	// Systematic source bias, scaled by the variable's wave amplitude.
	val += w.Source.Bias * v.Physics.WaveAmp
	return val
}

// climatologyValue is ClimatologyAt's closed form on a non-Static
// channel: the time-mean profile plus the source bias, rounded to
// float32, and the season, which ClimatologyAt rounds on its own.
func (w *World) climatologyValue(vi, row, step int) (mean float32, season float64) {
	v := &w.Vars[vi]
	days := float64(step) / StepsPerDay
	lat := -math.Pi/2 + (float64(row)+0.5)*math.Pi/float64(w.Height)
	base := v.Physics.BaseMean - v.Physics.PoleDrop*math.Pow(math.Sin(lat), 2) + w.Source.Bias*v.Physics.WaveAmp
	return float32(base), v.Physics.SeasonalAmp * math.Sin(2*math.Pi*days/365.25) * math.Sin(lat) * w.Source.AmpScale
}

// Field's tables change no bit: every channel of every registry and
// source, on a small grid (its middle row on the equator) and on the
// serving benchmark's, at steps from the first to past sixty years of
// 6-hourly data. Field and ClimatologyAt must equal the closed form in
// float32, and their float64 forms must equal it before rounding: a
// reordered float64 term almost never shows after the float32 store.
func TestFieldMatchesClosedForm(t *testing.T) {
	same32 := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	same64 := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, w := range append(allWorlds(5, 8), NewWorld(RegistrySmall(), 16, 32, ERA5Source())) {
		n := len(w.Vars) * w.Height * w.Width
		f64, clim64 := make([]float64, n), make([]float64, n)
		for _, step := range []int{0, 1, 7, 1200, 1234, 5000, 99999} {
			f, clim := w.Field(step).Data(), w.ClimatologyAt(step).Data()
			field(w, step, f64)
			climatologyAt(w, step, clim64)
			i := 0
			for vi, v := range w.Vars {
				for r := 0; r < w.Height; r++ {
					for c := 0; c < w.Width; c++ {
						want := w.value(vi, r, c, step)
						ok := same32(f[i], float32(want))
						if v.Kind != Static {
							mean, season := w.climatologyValue(vi, r, step)
							ok = ok && same64(f64[i], want) &&
								same32(clim[i], mean+float32(season)) && same64(clim64[i], float64(mean)+season)
						}
						if !ok {
							t.Fatalf("%s/%d vars %s (%d,%d) step %d: Field %v (%v), ClimatologyAt %v (%v), closed-form field %v",
								w.Source.Name, len(w.Vars), v.Name, r, c, step, f[i], f64[i], clim[i], clim64[i], want)
						}
						i++
					}
				}
			}
		}
	}
}

// BenchmarkField times the two calls that fill a cold score cache,
// Field and ClimatologyAt, on the serving benchmark's world (the eight
// RegistrySmall channels on a 16×32 grid, ERA5), so a regression in
// the data generator has a one-line reproducer:
//
//	go test ./internal/climate -run '^$' -bench Field
func BenchmarkField(b *testing.B) {
	w := NewWorld(RegistrySmall(), 16, 32, ERA5Source())
	b.Run("Field", func(b *testing.B) {
		for b.Loop() {
			w.Field(1234)
		}
	})
	b.Run("ClimatologyAt", func(b *testing.B) {
		for b.Loop() {
			w.ClimatologyAt(1234)
		}
	})
}
