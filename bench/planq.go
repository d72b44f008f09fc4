package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"orbit/internal/core"
	"orbit/internal/plan"
	"orbit/internal/tensor"
)

// planQuery is one member of the fixed query family: the BENCH_PR10
// planner stack at two global batches on one and two nodes. Batches
// and the knob grid are kept small so that a query takes 20–100 ms
// and the window holds well over a hundred of them.
type planQuery struct {
	w     plan.Workload
	shape plan.ClusterShape
}

var planCons = plan.Constraints{PrefetchDepths: []int{0, 1}, BucketBytes: []int{0}}

func planFamily() []planQuery {
	var fam []planQuery
	for _, nodes := range []int{1, 2} {
		for _, gb := range []int{8, 16} {
			fam = append(fam, planQuery{
				w: plan.Workload{Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: true, GlobalBatch: gb,
					Opts: core.Options{LayerWrapping: true, ActivationCheckpoint: true}},
				shape: plan.ScaledShape(nodes, trainComputeScale),
			})
		}
	}
	return fam
}

func runPlan(e *env) (*report, error) {
	rep := newReport(batchTail)
	fam := planFamily()
	// Set-up: enumerate every family member once and answer the
	// smallest query, which is what a planner process pays before its
	// first real answer. It lasts 30 ms, so it can afford more trials.
	for i := 0; i < 3*setupTrials; i++ {
		d, err := timedSetup(func() error {
			for _, q := range fam {
				if _, err := plan.Enumerate4(q.w, q.shape, planCons); err != nil {
					return err
				}
			}
			_, err := plan.Best4(fam[0].w, fam[0].shape, planCons)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, d)
		runtime.GC() // so that the trials' garbage does not stack up in peak_rss_mb
	}

	// The window: sequential queries over seeded permutations of the
	// family. The family's members cost different amounts, so a
	// percentile over single queries would sit on the boundary between
	// two of them; the op is therefore one pass over the family, reported
	// per query (pass time ÷ members), and every pass is the same work.
	// The planner is deterministic, so a repeated query must return the
	// plan it returned before.
	first := make([]*plan.Plan4, len(fam))
	var refs []float64
	queries := 0
	loop := func(dur time.Duration, seed uint64, tr *tracer) (raw, atRef []float64, err error) {
		rng := tensor.NewRNG(seed)
		begin, before := time.Now(), hostRef()
		for time.Since(begin) < dur {
			var passRaw, passRef float64
			for _, qi := range rng.Perm(len(fam)) {
				t0 := time.Now()
				best, err := plan.Best4(fam[qi].w, fam[qi].shape, planCons)
				t1 := time.Now()
				if err != nil {
					return nil, nil, err
				}
				after := hostRef()
				passRaw += ms(t1.Sub(t0))
				passRef += atRefSpeed(ms(t1.Sub(t0)), before, after)
				refs, before = append(refs, after), after
				tr.add("plan.best4", t0, t1, 0, queries, 0)
				queries++
				if first[qi] == nil {
					first[qi] = &best
				} else if !reflect.DeepEqual(*first[qi], best) {
					rep.fail("Best4 returned %v, then %v for the same query", *first[qi], best)
				}
			}
			raw = append(raw, passRaw/float64(len(fam)))
			atRef = append(atRef, passRef/float64(len(fam)))
		}
		return raw, atRef, nil
	}
	main := e.window
	if e.traced {
		main = e.window * 3 / 10
	}
	var err error
	if rep.rawMs, rep.opMs, err = loop(main, e.seed, nil); err != nil {
		return nil, err
	}
	rep.wall, rep.attempted = sumMs(rep.opMs)*time.Duration(len(fam)), queries
	rep.units = float64(queries)

	// Each returned plan is checked against the ground truth: the real
	// engines run on the simulated cluster and their clock must agree
	// with the planner's replay.
	var calib, memErr, simMs float64
	for qi, q := range fam {
		var sim plan.Measured4
		t0 := time.Now()
		d, _ := timedAtRefSpeed(func() error {
			sim = plan.Simulate4(q.w, q.shape, first[qi].Candidate4, 2)
			return nil
		})
		simMs += d
		e.tr.add("plan.simulate4", t0, time.Now(), 0, qi, 0)
		if sim.Err != nil {
			return nil, fmt.Errorf("simulate %v: %w", first[qi], sim.Err)
		}
		calib = math.Max(calib, math.Abs(first[qi].Pred.StepTime-sim.StepTime)/sim.StepTime*100)
		memErr = math.Max(memErr, math.Abs(float64(first[qi].Pred.DeviceBytes-sim.MemPeak)))
	}
	if calib > 1 {
		rep.fail("planner step time is %.2f%% off the simulated engines (limit 1%%)", calib)
	}
	if !e.traced {
		return rep, nil
	}

	_, traced, err := loop(e.window*4/10, e.seed+1, e.tr)
	if err != nil {
		return nil, err
	}
	L := rep.layer
	L["trace.overhead_pct"] = (median(traced)/median(rep.opMs) - 1) * 100
	L["host.ref_ms"] = median(refs)
	L["plan.calib_err_pct"] = calib
	L["plan.pred_mem_err_bytes"] = memErr
	L["plan.simulate_ms"] = simMs / float64(len(fam))
	var cands int
	var enumUs, predUs float64
	for _, q := range fam {
		cs, _ := plan.Enumerate4(q.w, q.shape, planCons)
		cands += len(cs)
		enumUs += timeOp(e.tr, "plan.enumerate4", func() { _, _ = plan.Enumerate4(q.w, q.shape, planCons) })
		d, _ := timedAtRefSpeed(func() error {
			for _, c := range cs {
				plan.Predict4(q.w, q.shape, c)
			}
			return nil
		})
		predUs += d * 1e3
	}
	L["plan.candidates"] = float64(cands) / float64(len(fam))
	L["plan.enumerate_ms"] = enumUs / 1e3 / float64(len(fam))
	L["plan.predict_us_per_cand"] = predUs / float64(cands)
	return rep, nil
}
