package train

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"orbit/internal/cluster"
	"orbit/internal/pp"
)

// TestElasticNodeKillProperty draws seeded random node kills at random
// steps over small random 4D layouts (each axis 1 or 2) on 2–3 nodes of
// 1–4 GPUs. Every run must return an error or complete, never panic or
// hang. A completed run kept TP, ends on a layout that fits the
// surviving devices — its initial one whenever that still fits — and
// matches the fault-free run of its initial layout: bit for bit when no
// rebuild changed the layout, within 1e-6 otherwise. Stalls and checkpoint corruption are not drawn: the
// watchdog that recovers a stall runs on wall-clock time.
func TestElasticNodeKillProperty(t *testing.T) {
	const runs = 48
	rng := rand.New(rand.NewSource(1))
	refs := make(map[pp.Layout][]float64) // fault-free losses per initial layout
	var kept, replanned, failed int
	for run := 0; run < runs; run++ {
		bit := func() int { return 1 + rng.Intn(2) }
		var l pp.Layout
		var nodes, gpn int
		for ok := false; !ok; ok = l.Ranks() <= nodes*gpn { // redraw until the layout fits
			l = pp.Layout{TP: bit(), PP: bit(), FSDP: bit(), DDP: bit()}
			nodes, gpn = 2+rng.Intn(2), 1+rng.Intn(4)
		}
		cfg := elasticBase(t, l.Inner(), nodes, gpn)
		cfg.PP, cfg.TotalSteps, cfg.CkptEvery = l.PP, 8, 3
		if rng.Intn(2) == 0 {
			cfg.ComputeScale = 1e-4 // a compute-bound machine: the planner favours other layouts
		}
		inj := cluster.NewFaultInjector()
		kills := 1 + rng.Intn(2)
		steps := []int{rng.Intn(cfg.TotalSteps), rng.Intn(cfg.TotalSteps)}
		steps[0], steps[1] = min(steps[0], steps[1]), max(steps[0], steps[1])
		desc := fmt.Sprintf("run %d: %+v on %d×%d, ComputeScale %g, kills", run, l, nodes, gpn, cfg.ComputeScale)
		for k := 0; k < kills; k++ {
			// The k-th kill fires on a machine of at least nodes-k nodes.
			node := rng.Intn(nodes - k)
			inj.KillNodeAtStep(node, steps[k])
			desc += fmt.Sprintf(" node %d@step %d", node, steps[k])
		}

		res, err := runWithin(t, desc, cfg, inj)
		if err != nil {
			failed++
			continue
		}
		ref, ok := refs[l]
		if !ok {
			base := cfg
			base.CkptDir = ""
			refRes, err := runWithin(t, desc+" (fault-free)", base, nil)
			if err != nil {
				t.Fatalf("%s: fault-free run: %v", desc, err)
			}
			ref, refs[l] = refRes.Losses, refRes.Losses
		}
		f := res.FinalLayout
		switch {
		case f.TP != l.TP:
			t.Fatalf("%s: TP changed to %d (events %+v)", desc, f.TP, res.Events)
		case l.PP == 1 && f.PP != 1:
			t.Fatalf("%s: an unpipelined job ended at PP=%d", desc, f.PP)
		case f.Ranks() > res.FinalNodes*gpn:
			t.Fatalf("%s: final layout %+v needs %d ranks on %d surviving devices", desc, f, f.Ranks(), res.FinalNodes*gpn)
		case f != l && l.Ranks() <= res.FinalNodes*gpn:
			t.Fatalf("%s: re-planned to %+v although %+v fits the survivors", desc, f, l)
		}
		if f == l {
			kept++
			for s := range ref {
				if res.Losses[s] != ref[s] {
					t.Fatalf("%s: layout kept, but step %d loss %v != fault-free %v (must be bit-identical)",
						desc, s, res.Losses[s], ref[s])
				}
			}
			continue
		}
		replanned++
		if err := lossesNear(ref, res.Losses); err != nil {
			t.Fatalf("%s: re-planned to %+v: %v", desc, f, err)
		}
	}
	t.Logf("%d runs: %d kept their layout, %d re-planned, %d returned an error", runs, kept, replanned, failed)
	if kept == 0 || replanned == 0 || failed == 0 {
		t.Fatalf("the draw exercised too little: %d kept, %d re-planned, %d errors", kept, replanned, failed)
	}
}

// runWithin runs an elastic job under a hard timeout, failing the test
// on a hang or a panic.
func runWithin(t *testing.T, desc string, cfg ElasticConfig, inj *cluster.FaultInjector) (*ElasticResult, error) {
	t.Helper()
	type outcome struct {
		res *ElasticResult
		err error
		pan any
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{pan: p}
			}
		}()
		res, err := RunElastic(cfg, inj)
		done <- outcome{res: res, err: err}
	}()
	select {
	case o := <-done:
		if o.pan != nil {
			t.Fatalf("%s: panic: %v", desc, o.pan)
		}
		return o.res, o.err
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: no result within 20 s", desc)
		return nil, nil
	}
}
