package plan

import (
	"errors"
	"fmt"
	"sync"

	"orbit/internal/nn"
	"orbit/internal/pp"
	"orbit/internal/tensor"
)

// Ground truth for the planner: run the real functional Hybrid-STOP
// engines over the simulated cluster and measure what the clocks
// actually do. This is what calibration tests compare Predict4
// against, and what `orbit-scaling -auto` sweeps to grade the
// planner's choice.

// Measured4 is one grid point of a brute-force sweep.
type Measured4 struct {
	Candidate4
	// StepTime is the simulated seconds per steady-state optimizer
	// step, measured as the MaxClock delta over measured steps after
	// one warm-up step.
	StepTime float64 `json:"step_time_s"`
	// MemPeak is the largest per-device memory high-water mark.
	MemPeak int64 `json:"mem_peak_bytes"`
	// Err records infeasibility (simulated OOM, impossible layout).
	Err error `json:"-"`
}

// Simulate4 runs `measured` real engine steps of the candidate (after
// one warm-up step) through the 1F1B schedule and returns the
// observed step time and memory peak; fewer than one measured step is
// an error, as is a candidate Predict4 refuses. The functional math
// runs for real — gradients flow, clocks advance — but no optimizer
// step is taken: parameter values do not affect the communication
// schedule, and the planner only needs the clocks.
func Simulate4(w Workload, c ClusterShape, cand Candidate4, measured int) Measured4 {
	out := Measured4{Candidate4: cand}
	var sc replay // refuses what Predict4 refuses, with the same note
	if note := sc.header(w, c, cand); note != "" {
		out.Err = errors.New(note)
		return out
	}
	if measured < 1 {
		out.Err = fmt.Errorf("plan: Simulate4 needs at least one measured step, got %d", measured)
		return out
	}
	layout := cand.Layout
	m := c.Machine()
	opts := cand.Options(w.Opts)
	rng := tensor.NewRNG(1007)
	ref := make([]*nn.TransformerBlock, w.Layers)
	for i := range ref {
		ref[i] = nn.NewTransformerBlock(fmt.Sprintf("plan%d", i), w.Dim, w.Heads, w.QKNorm, rng)
	}
	engines, err := pp.Build(layout, sc.cut.stages, m, ref, opts)
	if err != nil {
		out.Err = err
		return out
	}
	inner := layout.Inner()
	dataRanks := inner.FSDP * inner.DDP
	micros := w.GlobalBatch / dataRanks // header checked it divides
	drng := tensor.NewRNG(1009)
	xs := make([]*tensor.Tensor, dataRanks)
	gs := make([]*tensor.Tensor, dataRanks)
	for i := range xs {
		xs[i] = tensor.Randn(drng, 1, w.Tokens, w.Dim)
		gs[i] = tensor.Randn(drng, 1, w.Tokens, w.Dim)
	}
	step := func() error {
		errs := make([]error, len(engines))
		var wg sync.WaitGroup
		for r := range engines {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				e := engines[rank]
				d := e.Coord.D*inner.FSDP + e.Coord.F
				_, err := e.RunStep(micros, pp.StepIO{
					Shape:    []int{w.Tokens, w.Dim},
					Input:    func(mu int) *tensor.Tensor { return xs[d] },
					LossGrad: func(mu int, y *tensor.Tensor) (float64, *tensor.Tensor) { return 0, gs[d] },
				})
				errs[rank] = err
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := step(); err != nil { // warm-up
		out.Err = err
		return out
	}
	warm := m.MaxClock()
	for i := 0; i < measured; i++ {
		if err := step(); err != nil {
			out.Err = err
			return out
		}
	}
	out.StepTime = (m.MaxClock() - warm) / float64(measured)
	out.MemPeak = m.MaxMemPeak()
	return out
}

// GridCandidates is the classic power-of-two sweep grid at a fixed
// knob setting: every unpipelined (TP, FSDP, DDP) with power-of-two
// extents that occupies the whole cluster and divides the global
// batch. This is the brute-force baseline `orbit-scaling -auto` grades
// the planner against; Enumerate4 explores a superset.
func GridCandidates(w Workload, c ClusterShape, knobs Knobs) []Candidate4 {
	devs := c.Devices()
	var out []Candidate4
	for tp := 1; tp <= w.Heads && tp <= devs; tp *= 2 {
		if w.Heads%tp != 0 || devs%tp != 0 {
			continue
		}
		rest := devs / tp
		for fsdp := 1; fsdp <= rest; fsdp *= 2 {
			if rest%fsdp != 0 {
				continue
			}
			ddp := rest / fsdp
			if w.GlobalBatch%(fsdp*ddp) != 0 {
				continue
			}
			k := knobs
			k.MicroBatches = w.GlobalBatch / (fsdp * ddp)
			if ddp == 1 {
				k.DDPBucketBytes = 0
			}
			out = append(out, Candidate4{Layout: pp.Layout{TP: tp, PP: 1, FSDP: fsdp, DDP: ddp}, Knobs: k})
		}
	}
	return out
}
