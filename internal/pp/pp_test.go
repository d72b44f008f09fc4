package pp

import (
	"reflect"
	"strings"
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/comm"
	"orbit/internal/core"
	"orbit/internal/tensor"
)

func TestParseLayout(t *testing.T) {
	cases := []struct {
		spec string
		want Layout
	}{
		{"2x4x8", Layout{TP: 2, PP: 1, FSDP: 4, DDP: 8}},
		{"2x2x4x8", Layout{TP: 2, PP: 2, FSDP: 4, DDP: 8}},
		{" 1X2X1X1 ", Layout{TP: 1, PP: 2, FSDP: 1, DDP: 1}},
	}
	for _, c := range cases {
		got, err := ParseLayout(c.spec)
		if err != nil {
			t.Fatalf("ParseLayout(%q): %v", c.spec, err)
		}
		if got != c.want {
			t.Fatalf("ParseLayout(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
	for _, bad := range []string{
		"", "2", "2x4", "2x4x8x16x32", "axbxc", "2x0x4x8", "-1x1x1x1",
		"2.5x2x2", "2junkx2x2", "2 3x2x2", "+2x2x2", "2x2x2x", "x2x2x2", "2x 2x2", "99999999999x1x1",
	} {
		if _, err := ParseLayout(bad); err == nil {
			t.Fatalf("ParseLayout(%q) accepted", bad)
		}
	}
}

// FuzzParseLayout: whatever ParseLayout accepts is a pure
// digits-and-x spec (no sign, space, fraction or trailing junk inside
// it) and round-trips through String. The seed corpus is committed
// under testdata/fuzz and runs in `make fuzz-smoke`.
func FuzzParseLayout(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		l, err := ParseLayout(spec)
		if err != nil {
			return
		}
		if strings.Trim(strings.ToLower(strings.TrimSpace(spec)), "0123456789x") != "" {
			t.Fatalf("ParseLayout(%q) accepted a spec with bytes other than digits and x: %+v", spec, l)
		}
		back, err := ParseLayout(l.String())
		if err != nil || back != l {
			t.Fatalf("ParseLayout(%q) = %+v does not round-trip: String() = %q -> %+v, %v", spec, l, l.String(), back, err)
		}
	})
}

func TestLayoutString(t *testing.T) {
	l := Layout{TP: 2, PP: 3, FSDP: 4, DDP: 5}
	if l.String() != "2x3x4x5" {
		t.Fatalf("String() = %q", l.String())
	}
	if l.Ranks() != 120 {
		t.Fatalf("Ranks() = %d", l.Ranks())
	}
}

func TestRankCoordRoundTrip(t *testing.T) {
	l := Layout{TP: 2, PP: 3, FSDP: 2, DDP: 2}
	seen := make(map[int]bool)
	for p := 0; p < l.PP; p++ {
		for d := 0; d < l.DDP; d++ {
			for f := 0; f < l.FSDP; f++ {
				for tp := 0; tp < l.TP; tp++ {
					c := Coord{T: tp, P: p, F: f, D: d}
					r := l.RankOf(c)
					if r < 0 || r >= l.Ranks() || seen[r] {
						t.Fatalf("RankOf(%+v) = %d invalid or duplicate", c, r)
					}
					seen[r] = true
					if got := l.CoordOf(r); got != c {
						t.Fatalf("CoordOf(%d) = %+v, want %+v", r, got, c)
					}
				}
			}
		}
	}
	// PP is the slowest axis: stage p owns the contiguous rank window
	// [p·inner, (p+1)·inner) and the interior ordering is core's.
	inner := l.Inner()
	for p := 0; p < l.PP; p++ {
		for r3 := 0; r3 < inner.Ranks(); r3++ {
			c3 := inner.CoordOf(r3)
			r4 := l.RankOf(Coord{T: c3.T, P: p, F: c3.F, D: c3.D})
			if r4 != p*inner.Ranks()+r3 {
				t.Fatalf("stage %d inner rank %d maps to %d, want %d", p, r3, r4, p*inner.Ranks()+r3)
			}
		}
	}
}

// TestPartitionBalance pins UniformPartition's earliest-cut ranges:
// leading stages are as small as the optimal bottleneck permits.
func TestPartitionBalance(t *testing.T) {
	cases := []struct {
		count, stages int
		want          [][2]int
	}{
		// Smaller stages first (earliest-cut tie-break).
		{5, 2, [][2]int{{0, 2}, {2, 5}}},
		// Earliest feasible cut: stage 0 keeps only what optimality
		// forces on it (the suffix still splits under the bottleneck).
		{7, 3, [][2]int{{0, 1}, {1, 4}, {4, 7}}},
		// One stage = whole stack.
		{3, 1, [][2]int{{0, 3}}},
		// Stages = blocks: singletons.
		{3, 3, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
	}
	for _, c := range cases {
		got, err := UniformPartition(c.count, c.stages)
		if err != nil {
			t.Fatalf("UniformPartition(%d, %d): %v", c.count, c.stages, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("UniformPartition(%d, %d) = %v, want %v", c.count, c.stages, got, c.want)
		}
	}
}

// TestPartitionOptimalBottleneck: every cut is a contiguous non-empty
// cover whose largest stage is the brute-force optimum.
func TestPartitionOptimalBottleneck(t *testing.T) {
	for count := 1; count <= 9; count++ {
		for stages := 1; stages <= count; stages++ {
			cuts, err := UniformPartition(count, stages)
			if err != nil {
				t.Fatal(err)
			}
			if len(cuts) != stages {
				t.Fatalf("%d/%d: %d ranges", count, stages, len(cuts))
			}
			prev, bottleneck := 0, 0
			for _, rng := range cuts {
				if rng[0] != prev || rng[1] <= rng[0] {
					t.Fatalf("%d/%d: bad range %v in %v", count, stages, rng, cuts)
				}
				prev = rng[1]
				bottleneck = max(bottleneck, rng[1]-rng[0])
			}
			if prev != count {
				t.Fatalf("%d/%d: cover ends at %d", count, stages, prev)
			}
			if best := bruteBottleneck(count, stages); bottleneck != best {
				t.Fatalf("%d/%d: bottleneck %d, optimum %d", count, stages, bottleneck, best)
			}
		}
	}
}

// bruteBottleneck exhaustively minimizes the largest stage of count
// unit-cost blocks cut into stages contiguous pieces.
func bruteBottleneck(count, stages int) int {
	if stages == 1 {
		return count
	}
	best := count
	for cut := 1; cut <= count-stages+1; cut++ {
		best = min(best, max(cut, bruteBottleneck(count-cut, stages-1)))
	}
	return best
}

func TestPartitionErrors(t *testing.T) {
	if _, err := UniformPartition(2, 0); err == nil {
		t.Fatal("stages=0 accepted")
	}
	if _, err := UniformPartition(1, 2); err == nil {
		t.Fatal("more stages than blocks accepted")
	}
}

func TestUniformPartition(t *testing.T) {
	got, err := UniformPartition(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 1}, {1, 4}, {4, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("UniformPartition(7,3) = %v, want %v", got, want)
	}
}

// TestUniformPartitionMatchesPartition is the differential test of the
// closed form against the balanced-cost partition it replaced
// (binary-searched bottleneck, greedy earliest-cut reconstruction),
// kept below as the reference, over unit costs.
func TestUniformPartitionMatchesPartition(t *testing.T) {
	for count := 1; count <= 64; count++ {
		cost := make([]int64, count)
		for i := range cost {
			cost[i] = 1
		}
		for stages := 1; stages <= count; stages++ {
			got, err := UniformPartition(count, stages)
			if err != nil {
				t.Fatal(err)
			}
			if want := refPartition(cost, stages); !reflect.DeepEqual(got, want) {
				t.Fatalf("UniformPartition(%d, %d) = %v, reference %v", count, stages, got, want)
			}
		}
	}
}

// refPartition cuts per-block costs into stages contiguous, non-empty
// ranges minimizing the maximum stage cost; among all minimizing
// partitions each stage takes the smallest end index that still admits
// an optimal completion. Requires 1 ≤ stages ≤ len(cost).
func refPartition(cost []int64, stages int) [][2]int {
	n := len(cost)
	var lo, hi int64
	for _, c := range cost {
		hi += c
		lo = max(lo, c)
	}
	for lo < hi {
		if mid := lo + (hi-lo)/2; minPieces(cost, mid) <= stages {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	opt := lo
	out := make([][2]int, 0, stages)
	start := 0
	for s := 0; s < stages; s++ {
		remaining := stages - s - 1
		if remaining == 0 {
			return append(out, [2]int{start, n})
		}
		end := start + 1
		sum := cost[start]
		for !(sum <= opt && n-end >= remaining && minPieces(cost[end:], opt) <= remaining) {
			sum += cost[end]
			end++
		}
		out = append(out, [2]int{start, end})
		start = end
	}
	return out
}

// minPieces is the greedy minimum number of contiguous pieces with
// per-piece sum ≤ m (a count larger than len(cost) when a single block
// exceeds m).
func minPieces(cost []int64, m int64) int {
	pieces, cur := 1, int64(0)
	for _, c := range cost {
		if c > m {
			return len(cost) + 1
		}
		if cur+c > m {
			pieces++
			cur = 0
		}
		cur += c
	}
	return pieces
}

func TestScheduleFor1F1B(t *testing.T) {
	scheds, err := ScheduleFor(Schedule1F1B, 3, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 (w=2): F0 F1 (F2,B0) (F3,B1) B2 B3; every backward
	// follows other forwards, so each recomputes.
	want0 := []Op{{Fwd, false, 0}, {Fwd, false, 1}, {Fwd, false, 2}, {Bwd, true, 0},
		{Fwd, false, 3}, {Bwd, true, 1}, {Bwd, true, 2}, {Bwd, true, 3}}
	if !reflect.DeepEqual(scheds[0], want0) {
		t.Fatalf("stage 0: %v", scheds[0])
	}
	// Last stage (w=0): strict (F_i, B_i) pairs, no recompute.
	wantLast := []Op{{Fwd, false, 0}, {Bwd, false, 0}, {Fwd, false, 1}, {Bwd, false, 1},
		{Fwd, false, 2}, {Bwd, false, 2}, {Fwd, false, 3}, {Bwd, false, 3}}
	if !reflect.DeepEqual(scheds[2], wantLast) {
		t.Fatalf("stage 2: %v", scheds[2])
	}
	for s, ops := range scheds {
		checkScheduleComplete(t, s, ops, 4)
	}
	// Two stages, one micro-batch: stage 0 runs F0 B0, and B0 directly
	// follows its own forward, so it does not recompute.
	scheds, err = ScheduleFor(Schedule1F1B, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{{Fwd, false, 0}, {Bwd, false, 0}}
	for s, ops := range scheds {
		if !reflect.DeepEqual(ops, want) {
			t.Fatalf("2 stages × 1 micro, stage %d: %v", s, ops)
		}
	}
	for stages := 1; stages <= 6; stages++ {
		for micros := 1; micros <= 8; micros++ {
			scheds, err := ScheduleFor(Schedule1F1B, stages, 1, micros)
			if err != nil {
				t.Fatal(err)
			}
			for s, ops := range scheds {
				checkScheduleComplete(t, s, ops, micros)
			}
		}
	}
}

// checkScheduleComplete asserts every micro appears exactly once per
// kind, each backward follows its forward, and exactly the backwards
// not directly after their own forward recompute.
func checkScheduleComplete(t *testing.T, stage int, ops []Op, micros int) {
	t.Helper()
	fwdAt := make(map[int]int)
	bwdAt := make(map[int]int)
	for i, op := range ops {
		fresh := i > 0 && ops[i-1] == Op{Kind: Fwd, Micro: op.Micro}
		if op.Recompute != (op.Kind == Bwd && !fresh) {
			t.Fatalf("stage %d: op %d (%v%d) has Recompute %v", stage, i, op.Kind, op.Micro, op.Recompute)
		}
		m := fwdAt
		if op.Kind == Bwd {
			m = bwdAt
		}
		if _, dup := m[op.Micro]; dup {
			t.Fatalf("stage %d: duplicate %v%d", stage, op.Kind, op.Micro)
		}
		m[op.Micro] = i
	}
	if len(fwdAt) != micros || len(bwdAt) != micros {
		t.Fatalf("stage %d: %d forwards, %d backwards, want %d each", stage, len(fwdAt), len(bwdAt), micros)
	}
	for mu, bi := range bwdAt {
		if fi, ok := fwdAt[mu]; !ok || fi > bi {
			t.Fatalf("stage %d: backward %d before its forward", stage, mu)
		}
	}
}

func TestScheduleForErrors(t *testing.T) {
	if _, err := ScheduleFor(Schedule1F1B, 0, 1, 1); err == nil {
		t.Fatal("stages=0 accepted")
	}
	if _, err := ScheduleFor(Schedule1F1B, 2, 2, 1); err == nil {
		t.Fatal("1F1B with chunks=2 accepted")
	}
	if _, err := ScheduleFor(ScheduleKind(99), 2, 1, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestKindStrings(t *testing.T) {
	if Fwd.String() != "F" || Bwd.String() != "B" {
		t.Fatal("OpKind strings")
	}
}

func TestBuildErrors(t *testing.T) {
	ref := confStack(4, false)
	opts := confOpts(1)
	m := cluster.NewMachine(cluster.Frontier(), 1, 0)

	// Bad layout.
	if _, err := Build(Layout{TP: 0, PP: 1, FSDP: 1, DDP: 1}, [][2]int{{0, 4}}, m, ref, opts); err == nil {
		t.Fatal("zero TP accepted")
	}
	// PP>1 without wrapping/checkpointing.
	bare := opts
	bare.LayerWrapping = false
	if _, err := Build(Layout{TP: 1, PP: 2, FSDP: 1, DDP: 1}, [][2]int{{0, 2}, {2, 4}}, m, ref, bare); err == nil {
		t.Fatal("PP=2 without layer wrapping accepted")
	}
	noCkpt := opts
	noCkpt.ActivationCheckpoint = false
	if _, err := Build(Layout{TP: 1, PP: 2, FSDP: 1, DDP: 1}, [][2]int{{0, 2}, {2, 4}}, m, ref, noCkpt); err == nil {
		t.Fatal("PP=2 without activation checkpointing accepted")
	}
	// Wrong range count.
	if _, err := Build(Layout{TP: 1, PP: 2, FSDP: 1, DDP: 1}, [][2]int{{0, 4}}, m, ref, opts); err == nil {
		t.Fatal("1 range for 2 stages accepted")
	}
	// Non-contiguous / gapped cover.
	if _, err := Build(Layout{TP: 1, PP: 2, FSDP: 1, DDP: 1}, [][2]int{{0, 2}, {3, 4}}, m, ref, opts); err == nil {
		t.Fatal("gapped ranges accepted")
	}
	// Empty stage.
	if _, err := Build(Layout{TP: 1, PP: 2, FSDP: 1, DDP: 1}, [][2]int{{0, 4}, {4, 4}}, m, ref, opts); err == nil {
		t.Fatal("empty stage accepted")
	}
	// Incomplete cover.
	if _, err := Build(Layout{TP: 1, PP: 2, FSDP: 1, DDP: 1}, [][2]int{{0, 2}, {2, 3}}, m, ref, opts); err == nil {
		t.Fatal("incomplete cover accepted")
	}
	// Not enough devices: 4 stages × 8 ranks needs 32, machine has 8.
	if _, err := Build(Layout{TP: 2, PP: 4, FSDP: 2, DDP: 2}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, m, ref, opts); err == nil {
		t.Fatal("oversubscribed machine accepted")
	}
}

func TestEngineAccessors(t *testing.T) {
	ref := confStack(4, false)
	opts := confOpts(1)
	m := cluster.NewMachine(cluster.Frontier(), 1, 0)
	l := Layout{TP: 1, PP: 2, FSDP: 2, DDP: 1}
	stages, err := UniformPartition(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines, err := Build(l, stages, m, ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(engines) != l.Ranks() {
		t.Fatalf("%d engines, want %d", len(engines), l.Ranks())
	}
	e := engines[0]
	if got := len(e.Stage.Chunks()); got != 2 {
		t.Fatalf("stage 0 owns %d chunks, want 2", got)
	}
	if got := len(e.Stage.LogicalFlatLens()); got != 2 {
		t.Fatalf("stage 0 has %d flat lens, want 2", got)
	}
	// A 3D engine over the full stack must agree with the two stages'
	// concatenated logical lengths.
	g3, err := core.BuildGroups(l.Inner(), m)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := core.NewEngine(0, l.Inner(), g3[0], ref, opts, m.Devices[0])
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]int{}, engines[0].Stage.LogicalFlatLens()...), engines[l.Inner().Ranks()].Stage.LogicalFlatLens()...)
	if !reflect.DeepEqual(all, e3.LogicalFlatLens()) {
		t.Fatalf("stage flat lens %v != 3D %v", all, e3.LogicalFlatLens())
	}
}

func TestPoisonCommUnblocksLinks(t *testing.T) {
	ref := confStack(2, false)
	opts := confOpts(1)
	m := cluster.NewMachine(cluster.Frontier(), 1, 0)
	engines, err := Build(Layout{TP: 1, PP: 2, FSDP: 1, DDP: 1}, [][2]int{{0, 1}, {1, 2}}, m, ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	engines[1].PoisonComm()
	defer func() {
		if _, ok := recover().(comm.Poisoned); !ok {
			t.Fatal("RunStep on a poisoned engine did not panic with comm.Poisoned")
		}
	}()
	engines[1].RunStep(1, StepIO{
		Shape:    []int{confTokens, confDim},
		Input:    func(mu int) *tensor.Tensor { return sampleX(0, mu) },
		LossGrad: func(mu int, y *tensor.Tensor) (float64, *tensor.Tensor) { return lossGrad(y) },
	})
}
