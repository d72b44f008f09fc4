package climate

import (
	"fmt"

	"orbit/internal/tensor"
)

// Sample is one training example: an input state, the target state
// LeadHours later, and the lead time for model conditioning. Fields
// are normalized [C, H, W] tensors.
type Sample struct {
	Input     *tensor.Tensor
	Target    *tensor.Tensor
	LeadHours float64
}

// Dataset serves normalized forecast pairs from one source. It
// mirrors the paper's setup: 6-hourly observation points; pre-training
// predicts the full state at a (possibly randomized) lead; fine-tuning
// predicts a selected output-variable subset at fixed leads.
type Dataset struct {
	World *World
	Stats *Stats
	// StartStep and Steps bound the usable time range (e.g. the
	// train/val/test year split of the fine-tuning data).
	StartStep, Steps int
	// LeadSteps is the forecast horizon in 6-hour steps.
	LeadSteps int
	// OutputChans selects target channels; nil means all channels.
	OutputChans []int
}

// NewDataset builds a dataset over [startStep, startStep+steps).
func NewDataset(w *World, stats *Stats, startStep, steps, leadSteps int) *Dataset {
	return &Dataset{World: w, Stats: stats, StartStep: startStep, Steps: steps, LeadSteps: leadSteps}
}

// Len returns the number of usable samples.
func (d *Dataset) Len() int { return d.Steps }

// At materializes sample i: input at step StartStep+i, target at
// +LeadSteps, both normalized; the target restricted to OutputChans
// when set.
func (d *Dataset) At(i int) Sample {
	if i < 0 || i >= d.Steps {
		panic(fmt.Sprintf("climate: sample index %d out of range %d", i, d.Steps))
	}
	step := d.StartStep + i
	in := d.World.Field(step)
	d.Stats.Normalize(in)
	tgt := d.World.Field(step + d.LeadSteps)
	d.Stats.Normalize(tgt)
	if d.OutputChans != nil {
		tgt = SelectChannels(tgt, d.OutputChans)
	}
	return Sample{Input: in, Target: tgt, LeadHours: float64(d.LeadSteps) * 24 / StepsPerDay}
}

// SelectChannels extracts the given channel indices of [C, H, W] into
// a new [len(chans), H, W] tensor.
func SelectChannels(f *tensor.Tensor, chans []int) *tensor.Tensor {
	h, w := f.Dim(1), f.Dim(2)
	out := tensor.New(len(chans), h, w)
	hw := h * w
	for i, c := range chans {
		copy(out.Data()[i*hw:(i+1)*hw], f.Data()[c*hw:(c+1)*hw])
	}
	return out
}

// NormalizedClimatology returns the source's time-mean climatology
// restricted to the given channels in normalized units, for wACC
// evaluation against normalized model outputs.
func (d *Dataset) NormalizedClimatology(chans []int) *tensor.Tensor {
	clim := d.World.Climatology()
	d.Stats.Normalize(clim)
	if chans != nil {
		clim = SelectChannels(clim, chans)
	}
	return clim
}

// NormalizedClimatologyAt returns the day-of-year climatology valid at
// sample i's target time, normalized and channel-selected. Scoring
// anomalies against it removes the trivially predictable seasonal
// march, the WeatherBench convention the paper follows.
func (d *Dataset) NormalizedClimatologyAt(i int, chans []int) *tensor.Tensor {
	clim := d.World.ClimatologyAt(d.StartStep + i + d.LeadSteps)
	d.Stats.Normalize(clim)
	if chans != nil {
		clim = SelectChannels(clim, chans)
	}
	return clim
}

// PretrainCorpus is the multi-source pre-training collection: one
// Dataset per CMIP6-like source, interleaved round-robin the way a
// distributed sampler would.
type PretrainCorpus struct {
	Sets []*Dataset
}

// NewPretrainCorpus builds datasets over the same variable registry
// and grid for each source. Stats are estimated once on the first
// source and shared, matching the common practice of a single
// normalization table.
func NewPretrainCorpus(vars []Variable, height, width int, sources []Source, stepsPerSource, leadSteps int) *PretrainCorpus {
	if len(sources) == 0 {
		panic("climate: no sources")
	}
	c := &PretrainCorpus{}
	var stats *Stats
	for _, src := range sources {
		w := NewWorld(vars, height, width, src)
		if stats == nil {
			stats = w.EstimateStats(16)
		}
		c.Sets = append(c.Sets, NewDataset(w, stats, 0, stepsPerSource, leadSteps))
	}
	return c
}

// Len returns the total sample count across sources.
func (c *PretrainCorpus) Len() int {
	n := 0
	for _, s := range c.Sets {
		n += s.Len()
	}
	return n
}

// At interleaves sources round-robin: sample i comes from source
// i mod S at index i / S.
func (c *PretrainCorpus) At(i int) Sample {
	s := len(c.Sets)
	return c.Sets[i%s].At((i / s) % c.Sets[i%s].Len())
}
