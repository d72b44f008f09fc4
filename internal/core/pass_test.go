package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// passString renders a compiled pass one token per step: the op's
// letter, the block, for a half's step the half (C0.1), and for a
// charged compute its multiple (C0.0*1).
func passString(steps []Step) string {
	const letters = "GARHDCTUQSPW" // in StepOp order
	var sb strings.Builder
	for i, s := range steps {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%c%d", letters[s.Op], s.Block)
		if s.Op >= StepCompute && s.Op <= StepAwaitTP {
			fmt.Fprintf(&sb, ".%d", s.Half)
		}
		if s.Mult != 0 {
			fmt.Fprintf(&sb, "*%d", s.Mult)
		}
	}
	return sb.String()
}

// TestStagePassExactLists pins the compiled order for a 3-block stack.
// Letters: G gather, A await gather, R release, H hold / D drop
// activations, C compute a half (0 attention, 1 MLP forward; 2 MLP,
// 3 attention backward), T post / U await its TP all-reduce (half 4:
// the packed QK-norm gradients), Q post / S await reduce-scatter,
// P post / W await DDP all-reduce.
func TestStagePassExactLists(t *testing.T) {
	wrapCkpt := Options{LayerWrapping: true, ActivationCheckpoint: true, PrefetchDepth: 1}
	wrapCkptFwd := "G0 G1 A0 C0.0*1 T0.0 U0.0 C0.1 T0.1 U0.1 R0 G2 A1 C1.0*1 T1.0 U1.0 C1.1 T1.1 U1.1 R1 " +
		"A2 C2.0*1 T2.0 U2.0 C2.1 T2.1 U2.1 R2"
	wrapFwd := "G0 A0 C0.0*1 T0.0 U0.0 C0.1 T0.1 U0.1 R0 G1 A1 C1.0*1 T1.0 U1.0 C1.1 T1.1 U1.1 R1 " +
		"G2 A2 C2.0*1 T2.0 U2.0 C2.1 T2.1 U2.1 R2"
	for _, tc := range []struct {
		name   string
		opts   Options
		passes string // f forward, c recompute, b backward
		ddp    int
		qk     bool
		want   []string
	}{
		{"wrap+ckpt depth 1", wrapCkpt, "fb", 0, false, []string{wrapCkptFwd,
			"G2 G1 A2 C2.2*3 T2.2 U2.2 C2.3 T2.3 U2.3 Q2 R2 G0 A1 C1.2*3 T1.2 U1.2 C1.3 T1.3 U1.3 Q1 R1 " +
				"A0 C0.2*3 T0.2 U0.2 C0.3 T0.3 U0.3 Q0 R0 S0 S1 S2",
		}},
		{"neither", Options{PrefetchDepth: 1}, "fb", 0, false, []string{
			"G0 G1 G2 A0 A1 A2 H0 C0.0*1 T0.0 U0.0 C0.1 T0.1 U0.1 H1 C1.0*1 T1.0 U1.0 C1.1 T1.1 U1.1 " +
				"H2 C2.0*1 T2.0 U2.0 C2.1 T2.1 U2.1",
			"D2 C2.2*2 T2.2 U2.2 C2.3 T2.3 U2.3 Q2 R2 D1 C1.2*2 T1.2 U1.2 C1.3 T1.3 U1.3 Q1 R1 " +
				"D0 C0.2*2 T0.2 U0.2 C0.3 T0.3 U0.3 Q0 R0 S0 S1 S2",
		}},
		{"recompute then backward", Options{LayerWrapping: true, ActivationCheckpoint: true}, "fcb", 0, false, []string{
			wrapFwd, wrapFwd,
			"G2 A2 C2.2*2 T2.2 U2.2 C2.3 T2.3 U2.3 Q2 R2 G1 A1 C1.2*2 T1.2 U1.2 C1.3 T1.3 U1.3 Q1 R1 " +
				"G0 A0 C0.2*2 T0.2 U0.2 C0.3 T0.3 U0.3 Q0 R0 S0 S1 S2",
		}},
		{"two DDP buckets", wrapCkpt, "fb", 2, false, []string{wrapCkptFwd,
			"G2 G1 A2 C2.2*3 T2.2 U2.2 C2.3 T2.3 U2.3 Q2 R2 G0 A1 C1.2*3 T1.2 U1.2 C1.3 T1.3 U1.3 Q1 R1 " +
				"A0 C0.2*3 T0.2 U0.2 C0.3 T0.3 U0.3 Q0 R0 S0 S1 S2 P0 P1 W0 W1",
		}},
		{"qk", wrapCkpt, "fb", 0, true, []string{wrapCkptFwd,
			"G2 G1 A2 C2.2*3 T2.2 U2.2 C2.3 T2.4 U2.4 T2.3 U2.3 Q2 R2 " +
				"G0 A1 C1.2*3 T1.2 U1.2 C1.3 T1.4 U1.4 T1.3 U1.3 Q1 R1 " +
				"A0 C0.2*3 T0.2 U0.2 C0.3 T0.4 U0.4 T0.3 U0.3 Q0 R0 S0 S1 S2",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ps PassState
			ps.Reset(3)
			for i, p := range tc.passes {
				var steps []Step
				switch p {
				case 'f', 'c':
					steps = AppendForward(nil, tc.opts, &ps, p == 'f')
				case 'b':
					steps = AppendBackward(nil, tc.opts, &ps, tc.ddp, tc.qk)
				}
				if got := passString(steps); got != tc.want[i] {
					t.Errorf("pass %d (%c):\n got %s\nwant %s", i, p, got, tc.want[i])
				}
			}
		})
	}
}

// TestStagePassInvariants sweeps wrap × checkpoint × prefetch depth ×
// stack size × DDP all-reduces × the QK-norm sum through the pass
// sequences a rank runs —
// forward then backward, and under wrapping + checkpointing a pipeline
// stage's forward, recompute, backward — and checks from the step lists
// alone what the engine and the replay both rely on.
func TestStagePassInvariants(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		for _, ckpt := range []bool{false, true} {
			for depth := 0; depth <= 3; depth++ {
				for n := 1; n <= 4; n++ {
					for _, ddp := range []int{0, 1, 3} {
						opts := Options{LayerWrapping: wrap, ActivationCheckpoint: ckpt, PrefetchDepth: depth}
						name := fmt.Sprintf("wrap=%v/ckpt=%v/depth=%d/blocks=%d/ddp=%d", wrap, ckpt, depth, n, ddp)
						t.Run(name, func(t *testing.T) {
							checkPassInvariants(t, opts, n, ddp, false)
							checkPassInvariants(t, opts, n, ddp, true)
						})
					}
				}
			}
		}
	}
}

func checkPassInvariants(t *testing.T, opts Options, n, ddp int, qk bool) {
	var ps PassState
	ps.Reset(n)
	live := make([]bool, n)   // gather buffer allocated
	posted := make([]bool, n) // gather posted, not yet awaited
	held := make([]bool, n)   // activations resident
	rsPosted := make([]bool, n)
	liveCount, ddpPosts := 0, 0
	recomputed := false
	passes := "fbfbfb"
	if opts.LayerWrapping && opts.ActivationCheckpoint { // what pp.Build requires to recompute
		passes = "fbfcbffcbcbfb" // every order a 1F1B stage runs
	}
	// The replay compiles each kind of pass once per program: a pass's
	// steps may depend on its kind and the recompute mark, nothing else.
	seen := map[string]string{}
	for _, pass := range passes {
		var steps []Step
		if pass == 'b' {
			steps = AppendBackward(nil, opts, &ps, ddp, qk)
		} else {
			steps = AppendForward(nil, opts, &ps, pass == 'f')
		}
		key := fmt.Sprintf("%c recomputed=%v", pass, recomputed)
		if prev, ok := seen[key]; ok && prev != passString(steps) {
			t.Fatalf("pass %s compiled to\n%s\nafter\n%s", key, passString(steps), prev)
		}
		seen[key] = passString(steps)
		checkExposed(t, opts, steps, fmt.Sprintf("qk=%v pass %c", qk, pass))
		computed := make([]int, n)
		joined := make([]uint8, n) // bit h: half h's TP all-reduce awaited
		tpOpen := -1               // the block whose TP all-reduce is in flight
		var tpHalf uint8
		first, halves := uint8(0), uint8(0b11) // the pass's halves and what it must join
		if pass == 'b' {
			first, halves = 2, 0b1100
			if qk {
				halves |= 1 << 4
			}
		}
		for i, s := range steps {
			b := s.Block
			at := fmt.Sprintf("qk=%v pass %c step %d (%s)", qk, pass, i, passString(steps[i:i+1]))
			switch s.Op {
			case StepGather:
				if live[b] {
					t.Fatalf("%s: gathers a live buffer", at)
				}
				live[b], posted[b] = true, true
				liveCount++
				if opts.LayerWrapping && liveCount > opts.PrefetchDepth+1 {
					t.Fatalf("%s: %d buffers live at depth %d", at, liveCount, opts.PrefetchDepth)
				}
			case StepAwaitGather:
				if !posted[b] {
					t.Fatalf("%s: awaits a gather it did not post", at)
				}
				posted[b] = false
			case StepRelease:
				if !live[b] || posted[b] {
					t.Fatalf("%s: releases a buffer that is not live or still in flight", at)
				}
				live[b] = false
				liveCount--
			case StepHold:
				if held[b] {
					t.Fatalf("%s: holds twice", at)
				}
				held[b] = true
			case StepDrop:
				if !held[b] {
					t.Fatalf("%s: drops what it does not hold", at)
				}
				held[b] = false
			case StepCompute:
				if !live[b] || posted[b] {
					t.Fatalf("%s: computes without its gathered shard", at)
				}
				k := uint8(computed[b])
				if tpOpen >= 0 || s.Half != first+k || k > 0 && joined[b]&(1<<first) == 0 {
					t.Fatalf("%s: computes a half out of order or with a TP all-reduce unawaited", at)
				}
				want := int64(0) // the block's whole charge sits on its first half
				if k == 0 {
					want = 1
					if pass == 'b' {
						want = 2
						if opts.ActivationCheckpoint && !recomputed {
							want = 3
						}
					}
				}
				if s.Mult != want {
					t.Fatalf("%s: multiple %d, want %d", at, s.Mult, want)
				}
				computed[b]++
			case StepPostTP:
				last := first + uint8(computed[b]) - 1
				qkSum := s.Half == 4 && halves&(1<<4) != 0 && last == 3
				if tpOpen >= 0 || computed[b] == 0 || s.Half != last && !qkSum || joined[b]&(1<<s.Half) != 0 {
					t.Fatalf("%s: posts a TP all-reduce of no computed half, or with another in flight", at)
				}
				if s.Half == 3 && halves&^joined[b]&(1<<4) != 0 {
					t.Fatalf("%s: the attention all-reduce precedes the QK-norm sum", at)
				}
				tpOpen, tpHalf = b, s.Half
			case StepAwaitTP:
				if tpOpen != b || tpHalf != s.Half {
					t.Fatalf("%s: awaits a TP all-reduce it did not post", at)
				}
				joined[b] |= 1 << s.Half
				tpOpen = -1
			case StepPostRS:
				if joined[b] != halves || pass != 'b' {
					t.Fatalf("%s: posts the reduce-scatter before the block's backward is joined", at)
				}
				rsPosted[b] = true
			case StepAwaitRS:
				if !rsPosted[b] {
					t.Fatalf("%s: awaits a reduce-scatter it did not post", at)
				}
				rsPosted[b] = false
			case StepPostDDP:
				if b != ddpPosts {
					t.Fatalf("%s: DDP post out of order", at)
				}
				ddpPosts++
			case StepAwaitDDP:
				if b >= ddpPosts {
					t.Fatalf("%s: awaits an unposted DDP all-reduce", at)
				}
			}
		}
		for b, c := range computed {
			if c != 2 || joined[b] != halves {
				t.Fatalf("qk=%v pass %c computes block %d %d times, joins halves %05b, want %05b", qk, pass, b, c, joined[b], halves)
			}
		}
		for b := range posted {
			if posted[b] || rsPosted[b] {
				t.Fatalf("pass %c leaves a collective of block %d unawaited", pass, b)
			}
		}
		if pass == 'b' {
			if liveCount != 0 {
				t.Fatalf("%d gather buffers live after a backward", liveCount)
			}
			for b := range held {
				if held[b] {
					t.Fatalf("block %d's activations held after a backward", b)
				}
			}
			if ddpPosts != ddp {
				t.Fatalf("%d DDP posts, want %d", ddpPosts, ddp)
			}
			ddpPosts = 0
		} else if opts.ActivationCheckpoint {
			for b := range held {
				if held[b] {
					t.Fatalf("block %d's activations held under checkpointing", b)
				}
			}
		}
		recomputed = pass == 'c'
	}
}

// checkExposed checks the order internal/plan's pre-bound charges as
// exposed waits: no compute from a pass's first DDP post to its last
// DDP await; block 0's reduce-scatter posted after the pass's last
// compute and awaited within the pass; under LayerWrapping the pass's
// first awaited gather posted in the pass, and awaited before its first
// compute.
func checkExposed(t *testing.T, opts Options, steps []Step, at string) {
	t.Helper()
	find := func(op StepOp, block int) int {
		return slices.IndexFunc(steps, func(s Step) bool { return s.Op == op && (block < 0 || s.Block == block) })
	}
	computes := func(from, to int) bool {
		return slices.ContainsFunc(steps[from:to], func(s Step) bool { return s.Op == StepCompute })
	}
	lastAwait := -1
	for i, s := range steps {
		if s.Op == StepAwaitDDP {
			lastAwait = i
		}
	}
	if p := find(StepPostDDP, -1); p >= 0 && computes(p, lastAwait) {
		t.Fatalf("%s: computes while the DDP all-reduces are in flight", at)
	}
	if p := find(StepPostRS, 0); p >= 0 {
		awaited := slices.ContainsFunc(steps[p:], func(s Step) bool { return s.Op == StepAwaitRS && s.Block == 0 })
		if computes(p, len(steps)) || !awaited {
			t.Fatalf("%s: computes after block 0's reduce-scatter, or leaves it to a later pass", at)
		}
	}
	if a := find(StepAwaitGather, -1); opts.LayerWrapping {
		g := -1
		if a >= 0 {
			g = find(StepGather, steps[a].Block)
		}
		if g < 0 || g > a || computes(0, a) {
			t.Fatalf("%s: the first gather is not posted in the pass and awaited before its first compute", at)
		}
	}
}
