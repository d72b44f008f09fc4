package plan

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"orbit/internal/core"
	"orbit/internal/pp"
)

// benchFamily is the benchmark's plan_query family (bench/planq.go):
// the BENCH_PR10 planner stack at two global batches on one and two
// nodes, with the benchmark's knob grid.
func benchFamily() (ws []Workload, cs []ClusterShape, cons Constraints) {
	for _, nodes := range []int{1, 2} {
		for _, gb := range []int{8, 16} {
			ws = append(ws, Workload{Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: true, GlobalBatch: gb,
				Opts: core.Options{LayerWrapping: true, ActivationCheckpoint: true}})
			cs = append(cs, ScaledShape(nodes, 1e-3))
		}
	}
	return ws, cs, Constraints{PrefetchDepths: []int{0, 1}, BucketBytes: []int{0}}
}

var benchSink Plan4

// BenchmarkBest4Family is one pass over the four plan_query queries.
func BenchmarkBest4Family(b *testing.B) {
	ws, cs, cons := benchFamily()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := range ws {
			p, err := Best4(ws[q], cs[q], cons)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = p
		}
	}
}

// BenchmarkBest4Large is one 64-GPU query: Dim 256, 16 heads, 16
// layers, 64 tokens, global batch 128, the default options and knob
// grid, compute scale 1e-3 (1 701 candidates).
func BenchmarkBest4Large(b *testing.B) {
	w := Workload{Dim: 256, Heads: 16, Layers: 16, Tokens: 64, GlobalBatch: 128, Opts: core.DefaultOptions()}
	c := ScaledShape(8, 1e-3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := Best4(w, c, Constraints{})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}

// TestRankAllocs: pricing allocates little per candidate. The replay's
// programs, topology and run state live in one scratch per Best4 query,
// which also memoizes the stage cuts and schedules per (PP,
// micro-batches) and the pass sums per (blocks, TP), and keeps the last
// layout's topology, colouring and pre-bound in place; what is left is
// those memo entries, the walk order and the enumeration. Measured: 215
// allocations over the 140 candidates, 1.5 each (as before the layout
// was kept).
func TestRankAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ws, cs, cons := benchFamily()
	w, c := ws[3], cs[3] // GlobalBatch 16 on two nodes: the largest query
	cands, err := Enumerate4(w, c, cons)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Best4(w, c, cons); err != nil {
			t.Fatal(err)
		}
	})
	const perCandidate = 16
	if per := allocs / float64(len(cands)); per > perCandidate {
		t.Errorf("Best4 made %.0f allocations over %d candidates (%.1f each, budget %d)",
			allocs, len(cands), per, perCandidate)
	}
}

// TestPredictRejectsMalformedLayouts: Predict4 is reachable with
// hand-built candidates (orbit.PredictPlan), so a layout no engine can
// build must come back infeasible, not panic or be priced. Simulate4
// (orbit.SimulatePlan) runs exactly the steps it is asked for, so it
// refuses fewer than one rather than measure some other count.
func TestPredictRejectsMalformedLayouts(t *testing.T) {
	w := testWorkload() // 4 heads
	c := ScaledShape(2, 1e-3)
	for _, tc := range []struct {
		name     string
		layout   pp.Layout
		prefetch int
		note     string // "" accepts any note
	}{
		{"zero value", pp.Layout{}, 1, ""},
		{"FSDP 0", pp.Layout{TP: 1, PP: 1, FSDP: 0, DDP: 1}, 1, ""},
		{"TP -1", pp.Layout{TP: -1, PP: 1, FSDP: 1, DDP: 1}, 1, ""},
		{"TP 3 on 4 heads", pp.Layout{TP: 3, PP: 1, FSDP: 1, DDP: 1}, 1, ""},
		// core.NewEngine refuses it with the same message.
		{"prefetch -1", pp.Layout{TP: 2, PP: 1, FSDP: 2, DDP: 2}, -1, "core: negative prefetch depth -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pred := Predict4(w, c, Candidate4{Layout: tc.layout, Knobs: Knobs{PrefetchDepth: tc.prefetch}})
			if !pred.OOM || pred.Note == "" || !math.IsInf(pred.StepTime, 1) {
				t.Errorf("priced as feasible: %+v", pred)
			}
			if tc.note != "" && pred.Note != tc.note {
				t.Errorf("note %q, want %q", pred.Note, tc.note)
			}
		})
	}
	t.Run("Simulate4 measured 0", func(t *testing.T) {
		m := Simulate4(w, c, cand4(pp.Layout{TP: 2, PP: 1, FSDP: 2, DDP: 2}, w.GlobalBatch), 0)
		if want := "plan: Simulate4 needs at least one measured step, got 0"; m.Err == nil || m.Err.Error() != want {
			t.Errorf("error %v, want %q", m.Err, want)
		}
	})
}

// randomTriple draws one (workload, shape, candidate) the engines can
// build: 1–3 nodes, PP 1–3, FSDP 1–6 (so padded shards and groups
// that straddle a node boundary occur), prefetch depth 0–2, bucketed
// DDP, QK-norm on or off, and — at PP=1 only — layer wrapping and
// activation checkpointing independently off.
func randomTriple(rng *rand.Rand) (Workload, ClusterShape, Candidate4) {
	for {
		c := ScaledShape(1+rng.Intn(3), 1e-3)
		heads := []int{2, 4}[rng.Intn(2)]
		l := pp.Layout{
			TP:   []int{1, 2, 4}[rng.Intn(3)],
			PP:   1 + rng.Intn(3),
			FSDP: 1 + rng.Intn(6),
			DDP:  1 + rng.Intn(4),
		}
		if heads%l.TP != 0 || l.Ranks() > c.Devices() {
			continue
		}
		micros := 1 + rng.Intn(4)
		w := Workload{
			Dim: 8 * heads, Heads: heads, Layers: l.PP + rng.Intn(3), Tokens: 8,
			QKNorm:      rng.Intn(2) == 0,
			GlobalBatch: l.FSDP * l.DDP * micros,
			Opts:        core.DefaultOptions(),
		}
		if l.PP == 1 {
			w.Opts.LayerWrapping = rng.Intn(4) != 0
			w.Opts.ActivationCheckpoint = rng.Intn(4) != 0
		}
		k := Knobs{PrefetchDepth: rng.Intn(3), MicroBatches: micros}
		if l.DDP > 1 {
			k.DDPBucketBytes = []int{0, 1 << 10, 1 << 20}[rng.Intn(3)]
		}
		return w, c, Candidate4{Layout: l, Knobs: k}
	}
}

// TestReplayClassesMatchFullReplay is the differential gate on the
// class quotient: over seeded random triples, replaying one clock per
// symmetry class must equal the identity-partition replay (every rank
// its own class — the same code, no quotient) on every Prediction
// field, bit for bit; a subsample is additionally held to the real
// engines.
func TestReplayClassesMatchFullReplay(t *testing.T) {
	const triples, simulated = 240, 24
	every := triples / simulated
	if raceEnabled {
		every *= 4 // the engines are slow under the race detector
	}
	rng := rand.New(rand.NewSource(15))
	var ranks, classes, split int
	for i := 0; i < triples; i++ {
		w, c, cand := randomTriple(rng)
		var quot replay
		full := replay{identity: true}
		got, want := quot.predict(w, c, cand), full.predict(w, c, cand)
		if got != want {
			t.Fatalf("triple %d %+v %+v on %d nodes:\n classes %+v\n full    %+v", i, w, cand, c.Nodes, got, want)
		}
		if got.OOM {
			t.Fatalf("triple %d %+v %+v: generator drew an infeasible candidate: %s", i, w, cand, got.Note)
		}
		if len(full.classes) != cand.Layout.Ranks() {
			t.Fatalf("triple %d: identity partition replayed %d clocks for %d ranks", i, len(full.classes), cand.Layout.Ranks())
		}
		ranks += len(full.classes)
		classes += len(quot.classes)
		if len(quot.classes) > len(quot.progs) {
			split++
		}
		if i%every != 0 {
			continue
		}
		m := Simulate4(w, c, cand, 2)
		if m.Err != nil {
			t.Fatalf("triple %d %+v %+v: %v", i, w, cand, m.Err)
		}
		if e := relErr(got.StepTime, m.StepTime); e > calibTolerance {
			t.Errorf("triple %d %+v %+v: predicted %.6gs, simulated %.6gs (%.2f%% error)",
				i, cand.Layout, cand.Knobs, got.StepTime, m.StepTime, 100*e)
		}
		if got.DeviceBytes != m.MemPeak {
			t.Errorf("triple %d %+v %+v: predicted %d bytes, simulated peak %d",
				i, cand.Layout, cand.Knobs, got.DeviceBytes, m.MemPeak)
		}
	}
	t.Logf("%d triples: %d ranks replayed as %d classes; refinement split a program class in %d", triples, ranks, classes, split)
	// The gate is vacuous unless the quotient actually merged ranks and
	// the refinement actually split some program class.
	if classes >= ranks || split == 0 {
		t.Errorf("generator does not exercise the quotient: %d classes for %d ranks, %d refined", classes, ranks, split)
	}
}

// TestReplayBoundIsLowerBound: the bounds Best4 prunes on never exceed
// the step time the replay then predicts, and the pre-compile bound
// never exceeds the compiled one, each up to rounding — over the seeded
// triples of TestReplayClassesMatchFullReplay and every candidate of the
// benchmark's query family — so pruning cannot drop a winner. Neither
// bound is vacuous: on the family each alone exceeds the best step time
// on more than half of the candidates.
//
// Every candidate is priced on one shared scratch, as a Best4 query
// prices them, and on a fresh one: the note, both bounds and the whole
// prediction must agree bit for bit, so no layout memo (topology,
// partition, pre-bound) may go stale. The family runs under the
// benchmark's knob grid and the default one (bucket variants included),
// in enumeration order with an infeasible candidate between the first
// twins and then in a seeded shuffle of all four queries; one layout is
// then priced under another batch and under dearer links.
func TestReplayBoundIsLowerBound(t *testing.T) {
	var sc replay
	check := func(w Workload, c ClusterShape, cand Candidate4) (pre, bound, step float64, ok bool) {
		t.Helper()
		var fresh replay
		note := sc.header(w, c, cand)
		if want := fresh.header(w, c, cand); note != want {
			t.Fatalf("%+v %+v: note %q, fresh %q", w, cand, note, want)
		}
		if note != "" {
			return 0, 0, 0, false
		}
		if pre = sc.preBound(); fresh.preBound() != pre {
			t.Fatalf("%+v %+v: memoized pre-bound %.17g, fresh %.17g", w, cand, pre, fresh.preBound())
		}
		sc.compile()
		fresh.compile()
		if bound = sc.bound(math.Inf(1)); fresh.bound(math.Inf(1)) != bound {
			t.Fatalf("%+v %+v: bound %.17g, fresh %.17g", w, cand, bound, fresh.bound(math.Inf(1)))
		}
		got, want := sc.run(), fresh.run()
		if got != want {
			t.Fatalf("%+v %+v on %d nodes:\n shared %+v\n fresh  %+v", w, cand, c.Nodes, got, want)
		}
		// The two bounds sum the same prices in different orders, so
		// they round apart: where they agree exactly, the pre-bound can
		// land an ulp above (TP2×PP3 at GB 1 on three nodes does).
		if step = got.StepTime; pre > bound*(1+boundSlack) || max(pre, bound) > step*(1+boundSlack) {
			t.Fatalf("%+v %+v on %d nodes: pre-bound %.17g, bound %.17g, step time %.17g", w, cand, c.Nodes, pre, bound, step)
		}
		return pre, bound, step, true
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 240; i++ {
		check(randomTriple(rng))
	}
	ws, cs, benchCons := benchFamily()
	type member struct {
		q    int // index into ws and cs
		cand Candidate4
	}
	type priced struct {
		q          int
		pre, bound float64
	}
	var cands, prePruned, pruned int
	for _, cons := range []Constraints{benchCons, {}} {
		var family []member
		for q := range ws {
			all, err := Enumerate4(ws[q], cs[q], cons)
			if err != nil {
				t.Fatal(err)
			}
			for _, cand := range all {
				family = append(family, member{q, cand})
			}
		}
		if family[0].cand.Layout != family[1].cand.Layout {
			t.Fatalf("the first two candidates %+v and %+v are not twins", family[0].cand, family[1].cand)
		}
		// Five stages on four layers: refused after the memo checks.
		family = slices.Insert(family, 1, member{0, Candidate4{Layout: pp.Layout{TP: 1, PP: 5, FSDP: 1, DDP: 1}}})
		best := slices.Repeat([]float64{math.Inf(1)}, len(ws))
		var bounds []priced
		for _, m := range family {
			if pre, b, step, ok := check(ws[m.q], cs[m.q], m.cand); ok {
				best[m.q] = min(best[m.q], step)
				bounds = append(bounds, priced{m.q, pre, b})
			}
		}
		if len(bounds) != len(family)-1 {
			t.Fatalf("%d of %d candidates refused, want only the inserted one", len(family)-len(bounds), len(family))
		}
		rng.Shuffle(len(family), func(i, j int) { family[i], family[j] = family[j], family[i] })
		for _, m := range family {
			check(ws[m.q], cs[m.q], m.cand)
		}
		for _, b := range bounds {
			limit := best[b.q] * (1 + boundSlack)
			if b.pre > limit {
				prePruned++
			}
			if b.bound > limit {
				pruned++
			}
		}
		cands += len(bounds)
	}
	t.Logf("of %d family candidates the pre-bound exceeds the best step time on %d, the compiled bound on %d", cands, prePruned, pruned)
	if 2*prePruned <= cands || 2*pruned <= cands {
		t.Errorf("the bounds exceed the best step time on only %d (pre-compile) and %d (compiled) of %d family candidates",
			prePruned, pruned, cands)
	}
	w, c := ws[0], cs[0]
	cand := Candidate4{Layout: pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 1}, Knobs: Knobs{PrefetchDepth: 1}}
	check(w, c, cand)
	w.GlobalBatch *= 2
	check(w, c, cand)
	c.Spec.IntraNodeLatency *= 1e3
	check(w, c, cand)
}

// TestReplayBoundTakesTheCheapestRun: both bounds take the fastest
// program at the cheaper link class its ranks have. On
// TP1×PP2×FSDP6 over two nodes, stage 0's FSDP group sits on node 0 and
// two of its six ranks reach stage 1 over Infinity Fabric; stage 1's
// FSDP group straddles the nodes. Making Slingshot 1000× dearer must
// then leave both bounds where they were, though the step slows down
// by orders of magnitude: neither a dearer price nor the slower program
// may enter them.
func TestReplayBoundTakesTheCheapestRun(t *testing.T) {
	w := Workload{Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: true, GlobalBatch: 12, Opts: core.DefaultOptions()}
	cand := Candidate4{Layout: pp.Layout{TP: 1, PP: 2, FSDP: 6, DDP: 1}, Knobs: Knobs{PrefetchDepth: 1}}
	price := func(c ClusterShape) (pre, bound, step float64) {
		var sc replay
		if note := sc.header(w, c, cand); note != "" {
			t.Fatal(note)
		}
		pre = sc.preBound()
		sc.compile()
		return pre, sc.bound(math.Inf(1)), sc.run().StepTime
	}
	c := ScaledShape(2, 1e-3)
	pre, bound, step := price(c)
	c.Spec.InterNodeLatency *= 1e3
	c.Spec.InterNodeBandwidth /= 1e3
	dearPre, dearBound, dearStep := price(c)
	if dearPre != pre || dearBound != bound || dearStep < 100*step {
		t.Errorf("Slingshot 1000× dearer: pre-bound %g → %g, bound %g → %g, step %g → %g; want both bounds unmoved and the step 100× slower",
			pre, dearPre, bound, dearBound, step, dearStep)
	}
}

// TestPreBoundChargesTheSerialChain: where a program's solo run is one
// serial chain, the pre-compile bound must equal the compiled bound up
// to rounding. On TP4 in one node the only priced collectives are the
// TP all-reduces, each awaited right after its post; on TP1×PP2 the
// receives are, and the sends overlap the next forward. So the
// pre-bound must charge every TP all-reduce and every receive, not the
// compute alone.
func TestPreBoundChargesTheSerialChain(t *testing.T) {
	w := Workload{Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: true, GlobalBatch: 4, Opts: core.DefaultOptions()}
	for _, l := range []pp.Layout{{TP: 4, PP: 1, FSDP: 1, DDP: 1}, {TP: 1, PP: 2, FSDP: 1, DDP: 1}} {
		for _, scale := range []float64{1e-4, 1e-3, 1} {
			var sc replay
			if note := sc.header(w, ScaledShape(1, scale), cand4(l, w.GlobalBatch)); note != "" {
				t.Fatal(note)
			}
			pre := sc.preBound()
			sc.compile()
			if bound := sc.bound(math.Inf(1)); math.Abs(pre-bound) > bound*boundSlack {
				t.Errorf("%v at compute scale %g: pre-bound %.17g, compiled bound %.17g", l, scale, pre, bound)
			}
		}
	}
}

// TestReplayClassCountSymmetric: on a layout whose groups all fall the
// same way across node boundaries, the replay runs one clock per
// (stage, TP rank 0 or not) however many FSDP×DDP replicas there are.
func TestReplayClassCountSymmetric(t *testing.T) {
	w := Workload{
		Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: true,
		GlobalBatch: 32,
		Opts:        core.DefaultOptions(),
	}
	c := ScaledShape(8, 1e-3)
	l := pp.Layout{TP: 4, PP: 2, FSDP: 4, DDP: 2}
	var sc replay
	if pred := sc.predict(w, c, cand4(l, w.GlobalBatch)); pred.OOM {
		t.Fatalf("%v infeasible: %s", l, pred.Note)
	}
	if got, limit := len(sc.classes), 2*l.PP*l.TP; got > limit {
		t.Errorf("%v (%d ranks) replayed %d clocks, want <= %d", l, l.Ranks(), got, limit)
	}
}
