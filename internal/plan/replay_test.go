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

// BenchmarkBest4Paper512 is ROADMAP 4(a)'s 512-GPU query: Dim 1024, 16
// heads, 56 layers, 64 tokens, global batch 1536 on Shape(64), layer
// wrapping and checkpointing, the default knob grid (22 263 candidates).
// It fails unless the plan is TP2×PP56×FSDP1×DDP1 at prefetch depth 0.
func BenchmarkBest4Paper512(b *testing.B) {
	w := Workload{Dim: 1024, Heads: 16, Layers: 56, Tokens: 64, GlobalBatch: 1536,
		Opts: core.Options{LayerWrapping: true, ActivationCheckpoint: true}}
	for i := 0; i < b.N; i++ {
		p, err := Best4(w, Shape(64), Constraints{})
		if err != nil {
			b.Fatal(err)
		}
		if want := (pp.Layout{TP: 2, PP: 56, FSDP: 1, DDP: 1}); p.Layout != want || p.Knobs.PrefetchDepth != 0 {
			b.Fatalf("chose %v, want %v at prefetch depth 0", p, want)
		}
		b.ReportMetric(p.Pred.StepTime, "step-s")
		benchSink = p
	}
}

// BenchmarkBest4Paper49152 is BenchmarkBest4Paper512's workload on
// Shape(6144), 49 152 GPUs — the scale of the paper's Hybrid-STOP runs.
// It fails unless the plan is TP16×PP1×FSDP24×DDP64 at prefetch depth 2
// with 1 MiB DDP buckets.
func BenchmarkBest4Paper49152(b *testing.B) {
	w := Workload{Dim: 1024, Heads: 16, Layers: 56, Tokens: 64, GlobalBatch: 1536,
		Opts: core.Options{LayerWrapping: true, ActivationCheckpoint: true}}
	for i := 0; i < b.N; i++ {
		p, err := Best4(w, Shape(6144), Constraints{})
		if err != nil {
			b.Fatal(err)
		}
		want := Candidate4{Layout: pp.Layout{TP: 16, PP: 1, FSDP: 24, DDP: 64},
			Knobs: Knobs{PrefetchDepth: 2, DDPBucketBytes: 1 << 20, MicroBatches: 1}}
		if p.Candidate4 != want {
			b.Fatalf("chose %v, want %+v", p, want)
		}
		b.ReportMetric(p.Pred.StepTime, "step-s")
		benchSink = p
	}
}

// TestRankAllocs: pricing allocates little per candidate. The replay's
// programs, topology and run state live in one scratch per Best4 query,
// which also memoizes the stage cuts and schedules per (PP,
// micro-batches) and the pass sums per (blocks, TP), and keeps the last
// layout's span bits and pre-bound and the last compiled layout's
// topology and colouring in place; what is left is those memo entries,
// the walk order and the enumeration. Measured: 183 allocations over the
// 140 candidates, 1.3 each.
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
	const perCandidate = 2
	if per := allocs / float64(len(cands)); per > perCandidate {
		t.Errorf("Best4 made %.0f allocations over %d candidates (%.1f each, budget %d)",
			allocs, len(cands), per, perCandidate)
	}
}

// TestSpanBitsMatchWiring: the span bits markSpans derives from the
// grid's arithmetic equal the bits marked from buildTopology's wired
// groups — a group lies within a node iff all its members do — over
// seeded layouts on nodes of 1, 2, 3, 4, 6 and 8 devices, with stage
// windows that straddle node boundaries and TP groups wider than a node.
func TestSpanBitsMatchWiring(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var sc replay
	var want []uint8
	straddle, wide := 0, 0
	for i := 0; i < 600; i++ {
		gpn := []int{1, 2, 3, 4, 6, 8}[i%6]
		l := pp.Layout{TP: 1 + rng.Intn(8), PP: 1 + rng.Intn(4), FSDP: 1 + rng.Intn(5), DDP: 1 + rng.Intn(4)}
		sc.tcs = min(l.TP, 2) // as header sets it
		sc.markSpans(l, gpn)
		sc.buildTopology(l, gpn)
		want = resize(want, len(sc.spans))
		clear(want)
		for _, g := range sc.groups {
			ms, bit := sc.members[g.first:g.first+g.size], uint8(1)
			for _, m := range ms {
				if int(m>>3)/gpn != int(ms[0]>>3)/gpn {
					bit = 2
				}
			}
			for _, m := range ms {
				want[int(sc.progOf[m>>3])*roleCount+int(m&7)] |= bit
			}
		}
		if !slices.Equal(sc.spans, want) {
			t.Fatalf("%v on %d-GPU nodes: span bits %v, wired %v", l, gpn, sc.spans, want)
		}
		if l.PP > 1 && l.Inner().Ranks()%gpn != 0 {
			straddle++
		}
		if l.TP > gpn {
			wide++
		}
	}
	if straddle == 0 || wide == 0 {
		t.Errorf("%d layouts with straddling stage windows, %d with TP wider than a node; want some of each", straddle, wide)
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
		name   string
		layout pp.Layout
		knobs  Knobs
		note   string // "" accepts any note
	}{
		{"zero value", pp.Layout{}, Knobs{PrefetchDepth: 1}, ""},
		{"FSDP 0", pp.Layout{TP: 1, PP: 1, FSDP: 0, DDP: 1}, Knobs{PrefetchDepth: 1}, ""},
		{"TP -1", pp.Layout{TP: -1, PP: 1, FSDP: 1, DDP: 1}, Knobs{PrefetchDepth: 1}, ""},
		{"TP 3 on 4 heads", pp.Layout{TP: 3, PP: 1, FSDP: 1, DDP: 1}, Knobs{PrefetchDepth: 1}, ""},
		// core.NewEngine refuses these two with the same messages.
		{"prefetch -1", pp.Layout{TP: 2, PP: 1, FSDP: 2, DDP: 2}, Knobs{PrefetchDepth: -1}, "core: negative prefetch depth -1"},
		{"bucket -64", pp.Layout{TP: 2, PP: 1, FSDP: 2, DDP: 2}, Knobs{DDPBucketBytes: -64}, "core: negative DDP bucket size -64"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pred := Predict4(w, c, Candidate4{Layout: tc.layout, Knobs: tc.knobs})
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

// tripleSpace is a range randomTriple draws from: 1 to nodes nodes, 1
// to pp stages, fsdp and ddp, 1 to micros micro-batches, PP to
// PP+extra−1 layers, heads and TP from their lists, and compute scale
// 1e-3 or, when scaled, log-uniform in 1e-4…1.
type tripleSpace struct {
	nodes, pp, fsdp, ddp, micros, extra int
	heads, tp                           []int
	scaled                              bool
}

var (
	// narrow: FSDP up to 6, so padded shards and groups that straddle a
	// node boundary occur.
	narrow = tripleSpace{nodes: 3, pp: 3, fsdp: 6, ddp: 4, micros: 4, extra: 3, heads: []int{2, 4}, tp: []int{1, 2, 4}}
	// wide: deep pipelines and long 1F1B steady states.
	wide = tripleSpace{nodes: 4, pp: 6, fsdp: 4, ddp: 3, micros: 10, extra: 4, heads: []int{2, 4, 8}, tp: []int{1, 2, 4, 8}, scaled: true}
)

// randomTriple draws one (workload, shape, candidate) the engines can
// build from s, with prefetch depth 0–2, bucketed DDP, QK-norm on or
// off, and — at PP=1 only — layer wrapping and activation checkpointing
// independently off.
func randomTriple(rng *rand.Rand, s tripleSpace) (Workload, ClusterShape, Candidate4) {
	for {
		nodes, scale := 1+rng.Intn(s.nodes), 1e-3
		if s.scaled {
			scale = math.Pow(10, -4*rng.Float64())
		}
		c := ScaledShape(nodes, scale)
		heads := s.heads[rng.Intn(len(s.heads))]
		l := pp.Layout{
			TP:   s.tp[rng.Intn(len(s.tp))],
			PP:   1 + rng.Intn(s.pp),
			FSDP: 1 + rng.Intn(s.fsdp),
			DDP:  1 + rng.Intn(s.ddp),
		}
		if heads%l.TP != 0 || l.Ranks() > c.Devices() {
			continue
		}
		micros := 1 + rng.Intn(s.micros)
		w := Workload{
			Dim: 8 * heads, Heads: heads, Layers: l.PP + rng.Intn(s.extra), Tokens: 8,
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
		w, c, cand := randomTriple(rng, narrow)
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

// TestReplayBoundIsLowerBound: the pre-bound Best4 prunes on never
// exceeds the step time the replay then predicts, up to rounding — over
// the seeded triples of TestReplayClassesMatchFullReplay and every
// candidate of the benchmark's query family — so pruning cannot drop a
// winner. Nor is it vacuous: on the family it exceeds the best step time
// on at least 90 % of the candidates.
//
// Every candidate is priced on one shared scratch, as a Best4 query
// prices them, and on a fresh one: the note, the pre-bound and the whole
// prediction must agree bit for bit, so no layout memo (topology,
// partition, pre-bound) may go stale. The family runs under the
// benchmark's knob grid and the default one (bucket variants included),
// in enumeration order with an infeasible candidate between the first
// twins and then in a seeded shuffle of all four queries; one layout is
// then priced under another batch, under dearer links and on 5-GPU nodes.
func TestReplayBoundIsLowerBound(t *testing.T) {
	var sc replay
	check := func(w Workload, c ClusterShape, cand Candidate4) (pre, step float64, ok bool) {
		t.Helper()
		var fresh replay
		note := sc.header(w, c, cand)
		if want := fresh.header(w, c, cand); note != want {
			t.Fatalf("%+v %+v: note %q, fresh %q", w, cand, note, want)
		}
		if note != "" {
			return 0, 0, false
		}
		if pre = sc.preBound(); fresh.preBound() != pre {
			t.Fatalf("%+v %+v: memoized pre-bound %.17g, fresh %.17g", w, cand, pre, fresh.preBound())
		}
		sc.compile()
		fresh.compile()
		got, want := sc.run(), fresh.run()
		if got != want {
			t.Fatalf("%+v %+v on %d nodes:\n shared %+v\n fresh  %+v", w, cand, c.Nodes, got, want)
		}
		if step = got.StepTime; pre > step*(1+boundSlack) {
			t.Fatalf("%+v %+v on %d nodes: pre-bound %.17g, step time %.17g", w, cand, c.Nodes, pre, step)
		}
		return pre, step, true
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 240; i++ {
		check(randomTriple(rng, narrow))
	}
	ws, cs, benchCons := benchFamily()
	type member struct {
		q    int // index into ws and cs
		cand Candidate4
	}
	type priced struct {
		q   int
		pre float64
	}
	var cands, pruned int
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
			if pre, step, ok := check(ws[m.q], cs[m.q], m.cand); ok {
				best[m.q] = min(best[m.q], step)
				bounds = append(bounds, priced{m.q, pre})
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
			if b.pre > best[b.q]*(1+boundSlack) {
				pruned++
			}
		}
		cands += len(bounds)
	}
	t.Logf("of %d family candidates the pre-bound exceeds the best step time on %d", cands, pruned)
	if 10*pruned < 9*cands {
		t.Errorf("the pre-bound exceeds the best step time on only %d of %d family candidates, want ≥ 90 %%", pruned, cands)
	}
	w, c := ws[0], cs[0]
	cand := Candidate4{Layout: pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 1}, Knobs: Knobs{PrefetchDepth: 1}}
	check(w, c, cand)
	w.GlobalBatch *= 2
	check(w, c, cand)
	c.Spec.IntraNodeLatency *= 1e3
	check(w, c, cand)
	c.Nodes, c.GPUsPerNode = 2, 5 // the same ranks, now across a node boundary
	check(w, c, cand)
}

// TestPreBoundRandomSweep: the pre-bound stays at or below the replayed
// step time over seeded candidates from the wide space.
func TestPreBoundRandomSweep(t *testing.T) {
	n := 2000
	if raceEnabled {
		n /= 8
	}
	rng := rand.New(rand.NewSource(40))
	var sc replay
	ratio := 0.0
	for i := 0; i < n; i++ {
		w, c, cand := randomTriple(rng, wide)
		if note := sc.header(w, c, cand); note != "" {
			t.Fatalf("candidate %d %+v %+v: generator drew a candidate the replay refuses: %s", i, w, cand, note)
		}
		pre := sc.preBound()
		sc.compile()
		step := sc.run().StepTime
		if pre > step*(1+boundSlack) {
			t.Fatalf("candidate %d %+v %+v on %d nodes (scale %g): pre-bound %.17g, step time %.17g",
				i, w, cand, c.Nodes, c.Spec.PeakFLOPS, pre, step)
		}
		ratio = max(ratio, pre/step)
	}
	t.Logf("largest pre-bound / step time over %d candidates: %.6f", n, ratio)
}

// TestStageZeroEndsEveryStepLast: preBound's 1F1B chain rests on this.
// On every seeded PP > 1 triple, after each replayed step no class's
// clock exceeds the latest clock of a stage-0 class.
func TestStageZeroEndsEveryStepLast(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var sc replay
	checked := 0
	for i := 0; i < 240; i++ {
		w, c, cand := randomTriple(rng, narrow)
		if cand.Layout.PP == 1 {
			continue
		}
		if note := sc.header(w, c, cand); note != "" {
			t.Fatal(note)
		}
		sc.compile()
		sc.bindClasses(cand.Layout.Ranks(), sc.groupClasses)
		for step := 0; step < 3; step++ {
			if err := sc.runStep(); err != nil {
				t.Fatal(err)
			}
			first, last := 0.0, 0.0 // the latest stage-0 clock, the latest of all
			for ci := range sc.classes {
				cl := &sc.classes[ci]
				if cl.prog == &sc.progs[0] || sc.tcs == 2 && cl.prog == &sc.progs[1] {
					first = max(first, cl.clock)
				}
				last = max(last, cl.clock)
			}
			if last > first {
				t.Fatalf("triple %d %+v %+v step %d: a class ends at %.17g, stage 0 at %.17g", i, w, cand, step, last, first)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no PP > 1 triple drawn")
	}
}

// TestReplayBoundTakesTheCheapestRun: every term of the pre-bound takes
// the cheaper link class its ranks have, and each stage term the TP
// class with the cheaper price. Two layouts over two nodes put a stage
// across the node boundary:
//   - TP1×PP2×FSDP3×DDP2 on 8-GPU nodes: two of the six stage-0 ranks
//     reach stage 1 over Infinity Fabric, four over Slingshot, and stage 1
//     has FSDP and DDP groups of both link classes;
//   - TP2×PP2×FSDP2×DDP1 on 5-GPU nodes: in stage 1 only the TP rank-0
//     class's FSDP group straddles the nodes, and only the other class's
//     stage links all do.
//
// At two micro-batches the 1F1B chain is the larger bound, and making
// Slingshot 1000× dearer must leave it where it was, though the step
// slows down by orders of magnitude, and below that step.
func TestReplayBoundTakesTheCheapestRun(t *testing.T) {
	for _, tc := range []struct {
		layout pp.Layout
		gpn    int
	}{
		{pp.Layout{TP: 1, PP: 2, FSDP: 3, DDP: 2}, 8},
		{pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 1}, 5},
	} {
		w := Workload{Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: true, Opts: core.DefaultOptions(),
			GlobalBatch: 2 * tc.layout.FSDP * tc.layout.DDP} // two micro-batches
		cand := Candidate4{Layout: tc.layout, Knobs: Knobs{PrefetchDepth: 1}}
		price := func(c ClusterShape) (pre, step float64) {
			var sc replay
			if note := sc.header(w, c, cand); note != "" {
				t.Fatal(note)
			}
			pre = sc.preBound()
			sc.compile()
			return pre, sc.run().StepTime
		}
		c := ScaledShape(2, 1e-3)
		c.GPUsPerNode = tc.gpn
		pre, step := price(c)
		c.Spec.InterNodeLatency *= 1e3
		c.Spec.InterNodeBandwidth /= 1e3
		dearPre, dearStep := price(c)
		if dearPre != pre || dearStep < 100*step || dearPre > dearStep {
			t.Errorf("%v on %d-GPU nodes, Slingshot 1000× dearer: pre-bound %g → %g, step %g → %g; want the bound unmoved and the step 100× slower",
				tc.layout, tc.gpn, pre, dearPre, step, dearStep)
		}
	}
}

// TestPreBoundChargesTheSerialChain: where a step is one serial chain,
// the pre-bound must reach the replayed step time. On TP4 in one node
// the only priced collectives are the TP all-reduces, each awaited right
// after its post, so the bound must equal the step up to rounding; on
// FSDP2 at prefetch depth 1 and compute scales 1e-4 and 1e-3 every
// gather but each pass's first hides behind compute, and every
// reduce-scatter but the last, so it must too. On
// TP1×PP2 the stages wait on each other through the 1F1B fill and drain,
// and the bound must land within 3 % below the step where compute and
// links both weigh (compute scales 1e-4 and 1e-3, four micro-batches),
// and where 64 micro-batches' receives do at full compute speed.
func TestPreBoundChargesTheSerialChain(t *testing.T) {
	tp4, fsdp2 := pp.Layout{TP: 4, PP: 1, FSDP: 1, DDP: 1}, pp.Layout{TP: 1, PP: 1, FSDP: 2, DDP: 1}
	pp2 := pp.Layout{TP: 1, PP: 2, FSDP: 1, DDP: 1}
	for _, tc := range []struct {
		layout     pp.Layout
		batch      int
		scale, low float64 // low: the least pre-bound / step time
	}{
		{tp4, 4, 1e-4, 1 - boundSlack}, {tp4, 4, 1e-3, 1 - boundSlack}, {tp4, 4, 1, 1 - boundSlack},
		{fsdp2, 8, 1e-4, 1 - boundSlack}, {fsdp2, 8, 1e-3, 1 - boundSlack},
		{pp2, 4, 1e-4, 0.97}, {pp2, 4, 1e-3, 0.97}, {pp2, 4, 1, 0}, {pp2, 64, 1, 0.97},
	} {
		w := Workload{Dim: 32, Heads: 4, Layers: 4, Tokens: 16, QKNorm: true, GlobalBatch: tc.batch, Opts: core.DefaultOptions()}
		var sc replay
		if note := sc.header(w, ScaledShape(1, tc.scale), cand4(tc.layout, w.GlobalBatch)); note != "" {
			t.Fatal(note)
		}
		pre := sc.preBound()
		sc.compile()
		if step := sc.run().StepTime; pre > step*(1+boundSlack) || pre < tc.low*step {
			t.Errorf("%v at GB %d, compute scale %g: pre-bound %.17g, step time %.17g (ratio %.4f)",
				tc.layout, tc.batch, tc.scale, pre, step, pre/step)
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
