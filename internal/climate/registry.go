// Package climate provides the Earth-system data substrate for ORBIT:
// the 91-variable registry (3 static, 3 surface, 85 atmospheric
// variables on 17 pressure levels, paper Sec. IV "Pre-training
// Dataset"), a procedural climate-dynamics generator that stands in
// for the CMIP6 multi-model archive and the ERA5 reanalysis (which are
// multi-petabyte external datasets unavailable to an offline build),
// and dataset/loader types that mirror the paper's training setup: ten
// CMIP6-like sources with distinct model biases for pre-training, one
// reanalysis-like source for fine-tuning, 6-hourly sampling, and
// z-score normalization per variable.
//
// The generated dynamics are deterministic, smooth, seasonally forced
// advected wave fields plus source-dependent bias and noise, so (a)
// any time step is random-access computable, (b) the next state is
// genuinely predictable from the current one (models can learn), and
// (c) skill degrades with lead time (forecast difficulty is real).
package climate

import "fmt"

// VarKind classifies a variable the way the paper does.
type VarKind int

// Variable kinds: constant fields, single-level surface fields, and
// upper-air fields on pressure levels.
const (
	Static VarKind = iota
	Surface
	Atmospheric
)

// Variable describes one channel of the input tensor.
type Variable struct {
	Name string
	Kind VarKind
	// Level is the pressure level in hPa for atmospheric variables,
	// 0 otherwise.
	Level int
	// Physics seeds the generator so each variable has distinct
	// spatial structure.
	Physics PhysicsParams
}

// PhysicsParams control the procedural generator for one variable.
type PhysicsParams struct {
	// BaseMean and PoleDrop define the zonal-mean profile: value
	// BaseMean at the equator dropping by PoleDrop at the poles.
	BaseMean float64
	PoleDrop float64
	// SeasonalAmp scales the annual cycle.
	SeasonalAmp float64
	// WaveAmp scales the travelling planetary waves (the predictable
	// anomaly signal).
	WaveAmp float64
	// NoiseAmp scales the unpredictable high-frequency component.
	NoiseAmp float64
	// ZonalSpeed is the wave phase speed in grid-fraction per day
	// (positive = eastward), giving each variable its own advection.
	ZonalSpeed float64
}

// The 17 CMIP6 pressure levels used for the 91-variable set.
var pressureLevels17 = []int{10, 20, 30, 50, 70, 100, 150, 200, 250, 300, 400, 500, 600, 700, 850, 925, 1000}

// The 7 levels used by the ClimaX-style 48-variable set.
var pressureLevels7 = []int{50, 250, 500, 600, 700, 850, 925}

// atmosSpec describes one upper-air variable family.
type atmosSpec struct {
	name    string
	physics PhysicsParams
}

var atmosFamilies = []atmosSpec{
	{"geopotential", PhysicsParams{BaseMean: 54000, PoleDrop: 6000, SeasonalAmp: 800, WaveAmp: 1200, NoiseAmp: 120, ZonalSpeed: 0.08}},
	{"temperature", PhysicsParams{BaseMean: 260, PoleDrop: 50, SeasonalAmp: 12, WaveAmp: 6, NoiseAmp: 0.8, ZonalSpeed: 0.06}},
	{"u_wind", PhysicsParams{BaseMean: 8, PoleDrop: 12, SeasonalAmp: 4, WaveAmp: 9, NoiseAmp: 1.2, ZonalSpeed: 0.10}},
	{"v_wind", PhysicsParams{BaseMean: 0, PoleDrop: 2, SeasonalAmp: 2, WaveAmp: 7, NoiseAmp: 1.2, ZonalSpeed: 0.10}},
	{"specific_humidity", PhysicsParams{BaseMean: 0.006, PoleDrop: 0.005, SeasonalAmp: 0.002, WaveAmp: 0.0015, NoiseAmp: 0.0003, ZonalSpeed: 0.05}},
	{"relative_humidity", PhysicsParams{BaseMean: 60, PoleDrop: 20, SeasonalAmp: 10, WaveAmp: 12, NoiseAmp: 2.5, ZonalSpeed: 0.05}},
}

var staticVars = []Variable{
	{Name: "land_sea_mask", Kind: Static, Physics: PhysicsParams{BaseMean: 0.3, PoleDrop: -0.2, WaveAmp: 0.5}},
	{Name: "orography", Kind: Static, Physics: PhysicsParams{BaseMean: 400, PoleDrop: 200, WaveAmp: 900}},
	{Name: "soil_type", Kind: Static, Physics: PhysicsParams{BaseMean: 3, PoleDrop: 2, WaveAmp: 2}},
}

var surfaceVars = []Variable{
	{Name: "t2m", Kind: Surface, Physics: PhysicsParams{BaseMean: 288, PoleDrop: 45, SeasonalAmp: 12, WaveAmp: 5, NoiseAmp: 0.9, ZonalSpeed: 0.05}},
	{Name: "u10", Kind: Surface, Physics: PhysicsParams{BaseMean: 3, PoleDrop: 5, SeasonalAmp: 2, WaveAmp: 6, NoiseAmp: 1.1, ZonalSpeed: 0.09}},
	{Name: "v10", Kind: Surface, Physics: PhysicsParams{BaseMean: 0, PoleDrop: 1, SeasonalAmp: 1.5, WaveAmp: 5, NoiseAmp: 1.1, ZonalSpeed: 0.09}},
}

// levelScale attenuates wave amplitude with altitude so levels differ.
func levelScale(level int) float64 {
	return 0.5 + 0.5*float64(level)/1000
}

// buildAtmos expands variable families over pressure levels.
func buildAtmos(families []atmosSpec, levels []int) []Variable {
	vars := make([]Variable, 0, len(families)*len(levels))
	for _, f := range families {
		for _, lv := range levels {
			p := f.physics
			s := levelScale(lv)
			p.WaveAmp *= s
			p.SeasonalAmp *= s
			vars = append(vars, Variable{
				Name:    fmt.Sprintf("%s_%d", f.name, lv),
				Kind:    Atmospheric,
				Level:   lv,
				Physics: p,
			})
		}
	}
	return vars
}

// Registry91 returns the full ORBIT variable set: 3 static + 3 surface
// + 5 families × 17 levels = 91 channels.
func Registry91() []Variable {
	vars := append([]Variable{}, staticVars...)
	vars = append(vars, surfaceVars...)
	vars = append(vars, buildAtmos(atmosFamilies[:5], pressureLevels17)...)
	return vars
}

// Registry48 returns the ClimaX-style variable set: 3 static +
// 3 surface + 6 families × 7 levels = 48 channels.
func Registry48() []Variable {
	vars := append([]Variable{}, staticVars...)
	vars = append(vars, surfaceVars...)
	vars = append(vars, buildAtmos(atmosFamilies, pressureLevels7)...)
	return vars
}

// RegistrySmall returns a reduced set for unit tests and examples:
// 1 static + 3 surface + 2 families × 2 levels = 8 channels.
func RegistrySmall() []Variable {
	vars := []Variable{staticVars[0]}
	vars = append(vars, surfaceVars...)
	vars = append(vars, buildAtmos(atmosFamilies[:2], []int{500, 850})...)
	return vars
}

// IndexOf returns the channel index of the named variable, or -1.
func IndexOf(vars []Variable, name string) int {
	for i, v := range vars {
		if v.Name == name {
			return i
		}
	}
	return -1
}
