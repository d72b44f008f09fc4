package climate

import (
	"math"

	"orbit/internal/tensor"
)

// Source describes one data source: a CMIP6-participating model (for
// pre-training) or a reanalysis (for fine-tuning). Each source shares
// the same underlying dynamics but has its own bias, amplitude error
// and internal-variability phase — the structure that makes CMIP6 a
// multi-model ensemble.
type Source struct {
	Name string
	// Seed decorrelates the source's internal variability.
	Seed uint64
	// Bias is an additive offset in units of the variable's wave
	// amplitude (systematic model error).
	Bias float64
	// AmpScale multiplies anomaly amplitudes (models disagree on
	// variability strength).
	AmpScale float64
	// NoiseScale multiplies unpredictable noise.
	NoiseScale float64
}

// CMIP6Sources returns the ten pre-training sources named in the
// paper (MPI-ESM, AWI-ESM, HAMMOZ, CMCC, TAI-ESM, NOR, EC, MIRO, MRI,
// NESM), each with a distinct synthetic model error.
func CMIP6Sources() []Source {
	names := []string{"MPI-ESM", "AWI-ESM", "HAMMOZ", "CMCC", "TAI-ESM", "NOR", "EC", "MIRO", "MRI", "NESM"}
	sources := make([]Source, len(names))
	for i, n := range names {
		sources[i] = Source{
			Name:       n,
			Seed:       uint64(1000 + 7919*i),
			Bias:       0.25 * math.Sin(float64(i)*1.7),
			AmpScale:   0.85 + 0.04*float64(i%8),
			NoiseScale: 0.8 + 0.06*float64(i%5),
		}
	}
	return sources
}

// ERA5Source returns the reanalysis-like source used for fine-tuning
// and evaluation: unbiased, unit amplitude, its own variability seed.
func ERA5Source() Source {
	return Source{Name: "ERA5", Seed: 424242, Bias: 0, AmpScale: 1, NoiseScale: 1}
}

// World generates climate fields on an equiangular lat-lon grid. All
// fields are closed-form functions of time, so any 6-hourly step is
// random-access computable and exactly reproducible. Each term depends
// on the row, on (column, step) or on the step only: NewWorld tabulates
// the row factors, Static planes and climatology, and Field sums the
// terms in the closed form's order, so every value keeps its bits.
type World struct {
	Vars   []Variable
	Height int
	Width  int
	Source Source

	// Per-variable per-wave parameters derived from the source seed.
	waves [][]waveParam
	// noise modes per variable
	noise [][]noiseMode

	lon    []float64   // [W] longitude of each column
	sinLat []float64   // [H] sine of each row's latitude
	rows   [][]rowTerm // [C][H]
	clim   []float32   // [C,H,W] Climatology; a Static plane is the field
}

// rowTerm is one row of a variable: its zonal-mean base and its row
// factors, amp·cos lat·cos(m·lat) per wave and sin(ky·(lat+π/2)) per
// noise mode. Field multiplies them by the column factors of a step,
// sin(k·lon − speed·days + phase) and amp·sin(kx·lon + phaseX + freq·days).
type rowTerm struct {
	base float64
	f    factors
}

type factors [wavesPerVar + noisePerVar]float64 // one per wave, then one per noise mode

// waveParam is one travelling planetary wave component.
type waveParam struct {
	zonalWavenumber int
	meridionalMode  int
	amp             float64
	phase           float64
	speed           float64 // radians of longitude per day
}

// noiseMode is one slow, smooth pseudo-noise component; many
// incommensurate modes sum to a red-noise-like field that is still a
// deterministic function of time.
type noiseMode struct {
	kx, ky int
	amp    float64
	phaseX float64
	freq   float64 // radians per day, intentionally fast
}

const wavesPerVar = 4
const noisePerVar = 6

// StepsPerDay is the paper's 6-hourly sampling.
const StepsPerDay = 4

// NewWorld builds a generator for the given variable set, grid and
// source.
func NewWorld(vars []Variable, height, width int, src Source) *World {
	w := &World{Vars: vars, Height: height, Width: width, Source: src,
		lon: make([]float64, width), sinLat: make([]float64, height), clim: make([]float32, len(vars)*height*width)}
	rng := tensor.NewRNG(src.Seed)
	for vi, v := range vars {
		vrng := tensor.NewRNG(rng.Uint64() ^ uint64(vi*2654435761))
		ws := make([]waveParam, wavesPerVar)
		for k := range ws {
			ws[k] = waveParam{
				zonalWavenumber: 1 + vrng.Intn(5),
				meridionalMode:  1 + vrng.Intn(3),
				amp:             v.Physics.WaveAmp * (0.4 + 0.6*vrng.Float64()) * src.AmpScale / wavesPerVar * 2,
				phase:           2 * math.Pi * vrng.Float64(),
				// Strongly dispersive: wave speeds spread 0.4–1.6× so
				// a single advection velocity cannot track all modes
				// at long leads (each mode's rotation remains exactly
				// learnable by a sufficiently trained model).
				speed: 2 * math.Pi * v.Physics.ZonalSpeed * (0.4 + 1.2*vrng.Float64()),
			}
		}
		w.waves = append(w.waves, ws)
		ns := make([]noiseMode, noisePerVar)
		for k := range ns {
			ns[k] = noiseMode{
				kx:     1 + vrng.Intn(8),
				ky:     1 + vrng.Intn(6),
				amp:    v.Physics.NoiseAmp * src.NoiseScale * (0.5 + vrng.Float64()) / noisePerVar * 2.5,
				phaseX: 2 * math.Pi * vrng.Float64(),
			}
			if k%2 == 0 {
				// Fast band: period 12–24 h. Unpredictable at any lead.
				ns[k].freq = 2*math.Pi*2 + 4*math.Pi*vrng.Float64()
			} else {
				// Synoptic band: period 8–30 d with doubled amplitude.
				// Nearly frozen over one day (easy) but rotated by many
				// radians after 30 days (hard) — the mechanism that
				// makes forecast skill decay with lead time.
				ns[k].freq = 2 * math.Pi / (8 + 22*vrng.Float64())
				ns[k].amp *= 2.5
			}
		}
		w.noise = append(w.noise, ns)
		w.rows = append(w.rows, make([]rowTerm, height))
	}

	for c := range w.lon {
		w.lon[c] = 2 * math.Pi * float64(c) / float64(width)
	}
	for r := range w.sinLat {
		lat := -math.Pi/2 + (float64(r)+0.5)*math.Pi/float64(height)
		w.sinLat[r] = math.Sin(lat)
		for vi := range vars {
			v, t := &vars[vi], &w.rows[vi][r]
			// Zonal-mean climatology: equator-to-pole gradient.
			t.base = v.Physics.BaseMean - v.Physics.PoleDrop*math.Pow(w.sinLat[r], 2)
			for k, wp := range w.waves[vi] {
				t.f[k] = wp.amp * (math.Cos(lat) * math.Cos(float64(wp.meridionalMode)*lat))
			}
			for k, nm := range w.noise[vi] {
				t.f[wavesPerVar+k] = math.Sin(float64(nm.ky) * (lat + math.Pi/2))
			}
			clim := w.clim[(vi*height+r)*width:][:width]
			for c, lon := range w.lon {
				val := t.base + src.Bias*v.Physics.WaveAmp
				if v.Kind == Static {
					// Static fields: frozen "geography" from the wave
					// components, with no season and no bias.
					val = t.base
					for _, wp := range w.waves[vi] {
						val += wp.amp * math.Sin(float64(wp.zonalWavenumber)*lon+wp.phase) *
							math.Cos(float64(wp.meridionalMode)*lat)
					}
				}
				clim[c] = float32(val)
			}
		}
	}
	return w
}

// Field renders all channels at one time step: [C, H, W].
func (w *World) Field(step int) *tensor.Tensor {
	out := tensor.New(len(w.Vars), w.Height, w.Width)
	field(w, step, out.Data())
	return out
}

// field writes Field(step) into d. Its float32 store hides almost any
// reordered float64 term, so the tests also run it at float64.
func field[T float32 | float64](w *World, step int, d []T) {
	days := float64(step) / StepsPerDay
	sinDay := math.Sin(2 * math.Pi * days / 365.25)
	cols := make([]factors, w.Width)
	for vi := range w.Vars {
		v, hw := &w.Vars[vi], w.Height*w.Width
		if v.Kind == Static {
			for i, x := range w.clim[vi*hw : (vi+1)*hw] {
				d[vi*hw+i] = T(x)
			}
			continue
		}
		// One mode at a time along the columns, so that the octant
		// branches inside math.Sin see a regular sequence.
		// Travelling waves: the predictable anomaly signal.
		for k, wp := range w.waves[vi] {
			for c, lon := range w.lon {
				cols[c][k] = math.Sin(float64(wp.zonalWavenumber)*lon - wp.speed*days + wp.phase)
			}
		}
		// Fast smooth pseudo-noise: hard to predict at long leads.
		for k, nm := range w.noise[vi] {
			for c, lon := range w.lon {
				cols[c][wavesPerVar+k] = nm.amp * math.Sin(float64(nm.kx)*lon+nm.phaseX+nm.freq*days)
			}
		}
		// Systematic source bias, scaled by the variable's wave amplitude.
		bias := w.Source.Bias * v.Physics.WaveAmp
		for r := range w.rows[vi] {
			f := &w.rows[vi][r].f
			// Annual cycle, antisymmetric across hemispheres (seasons flip).
			base := w.rows[vi][r].base + v.Physics.SeasonalAmp*(sinDay*w.sinLat[r])*w.Source.AmpScale
			row := d[(vi*w.Height+r)*w.Width:][:w.Width]
			for c := range row {
				x := &cols[c] // the closed form's order: waves, noise, bias
				row[c] = T(base + f[0]*x[0] + f[1]*x[1] + f[2]*x[2] + f[3]*x[3] +
					f[4]*x[4] + f[5]*x[5] + f[6]*x[6] + f[7]*x[7] + f[8]*x[8] + f[9]*x[9] + bias)
			}
		}
	}
}

// Climatology returns the per-channel time-mean field used by the
// wACC metric: the zonal-mean profile plus the source bias, i.e. the
// generator with seasonal, wave and noise terms averaged out (they are
// all zero-mean in time). A Static channel never changes, so its
// climatology is its field.
func (w *World) Climatology() *tensor.Tensor {
	out := tensor.New(len(w.Vars), w.Height, w.Width)
	copy(out.Data(), w.clim)
	return out
}

// ClimatologyAt returns the climatology including the annual cycle at
// the given time step — the day-of-year climatology WeatherBench-style
// wACC evaluation subtracts, so the trivially predictable seasonal
// march does not count as forecast skill.
func (w *World) ClimatologyAt(step int) *tensor.Tensor {
	out := tensor.New(len(w.Vars), w.Height, w.Width)
	climatologyAt(w, step, out.Data())
	return out
}

// climatologyAt writes ClimatologyAt(step) into d; tests run it at float64.
func climatologyAt[T float32 | float64](w *World, step int, d []T) {
	for i, x := range w.clim {
		d[i] = T(x)
	}
	days := float64(step) / StepsPerDay
	sinDay := math.Sin(2 * math.Pi * days / 365.25)
	for vi := range w.Vars {
		v := &w.Vars[vi]
		if v.Kind == Static {
			continue
		}
		for r, sinLat := range w.sinLat {
			// Not Field's association: ((amp·sin day)·sin lat)·scale.
			season := T(v.Physics.SeasonalAmp * sinDay * sinLat * w.Source.AmpScale)
			row := d[(vi*w.Height+r)*w.Width:][:w.Width]
			for c := range row {
				row[c] += season
			}
		}
	}
}

// Stats returns per-channel normalization statistics (mean and
// standard deviation) estimated from a sample of time steps.
type Stats struct {
	Mean, Std []float64
}

// EstimateStats samples `samples` time steps spread over a year and
// computes per-channel mean and std for z-score normalization.
func (w *World) EstimateStats(samples int) *Stats {
	c := len(w.Vars)
	mean := make([]float64, c)
	m2 := make([]float64, c)
	n := 0
	stride := 365 * StepsPerDay / samples
	if stride < 1 {
		stride = 1
	}
	for s := 0; s < samples; s++ {
		f := w.Field(s * stride)
		hw := w.Height * w.Width
		for vi := 0; vi < c; vi++ {
			for _, v := range f.Data()[vi*hw : (vi+1)*hw] {
				mean[vi] += float64(v)
				m2[vi] += float64(v) * float64(v)
			}
		}
		n += hw
	}
	std := make([]float64, c)
	for vi := 0; vi < c; vi++ {
		mean[vi] /= float64(n)
		variance := m2[vi]/float64(n) - mean[vi]*mean[vi]
		if variance < 1e-12 {
			variance = 1e-12
		}
		std[vi] = math.Sqrt(variance)
	}
	return &Stats{Mean: mean, Std: std}
}

// Normalize z-scores a field [C, H, W] in place using the stats.
func (s *Stats) Normalize(f *tensor.Tensor) {
	c := f.Dim(0)
	hw := f.Dim(1) * f.Dim(2)
	d := f.Data()
	for vi := 0; vi < c; vi++ {
		m, inv := float32(s.Mean[vi]), float32(1/s.Std[vi])
		for i := vi * hw; i < (vi+1)*hw; i++ {
			d[i] = (d[i] - m) * inv
		}
	}
}
