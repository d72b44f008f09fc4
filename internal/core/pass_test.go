package core

import (
	"fmt"
	"strings"
	"testing"
)

// passString renders a compiled pass one token per step: the op's
// letter, the block, and for a compute step its charge multiple (F0*1).
func passString(steps []Step) string {
	const letters = "GARHDFCBSPW" // in StepOp order
	var sb strings.Builder
	for i, s := range steps {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%c%d", letters[s.Op], s.Block)
		if s.Mult != 0 {
			fmt.Fprintf(&sb, "*%d", s.Mult)
		}
	}
	return sb.String()
}

// TestStagePassExactLists pins the compiled order for a 3-block stack.
// Letters: G gather, A await gather, R release, H hold / D drop
// activations, F forward, C charge-only recompute, B backward, S await
// reduce-scatter, P post / W await DDP all-reduce.
func TestStagePassExactLists(t *testing.T) {
	wrapCkpt := Options{LayerWrapping: true, ActivationCheckpoint: true, PrefetchDepth: 1}
	for _, tc := range []struct {
		name   string
		opts   Options
		passes string // f forward, c recompute, b backward
		ddp    int
		want   []string
	}{
		{"wrap+ckpt depth 1", wrapCkpt, "fb", 0, []string{
			"G0 G1 A0 F0*1 R0 G2 A1 F1*1 R1 A2 F2*1 R2",
			"G2 G1 A2 B2*3 R2 G0 A1 B1*3 R1 A0 B0*3 R0 S0 S1 S2",
		}},
		{"neither", Options{PrefetchDepth: 1}, "fb", 0, []string{
			"G0 G1 G2 A0 A1 A2 H0 F0*1 H1 F1*1 H2 F2*1",
			"D2 B2*2 R2 D1 B1*2 R1 D0 B0*2 R0 S0 S1 S2",
		}},
		{"recompute then backward", Options{LayerWrapping: true, ActivationCheckpoint: true}, "fcb", 0, []string{
			"G0 A0 F0*1 R0 G1 A1 F1*1 R1 G2 A2 F2*1 R2",
			"G0 A0 C0*1 R0 G1 A1 C1*1 R1 G2 A2 C2*1 R2",
			"G2 A2 B2*2 R2 G1 A1 B1*2 R1 G0 A0 B0*2 R0 S0 S1 S2",
		}},
		{"two DDP buckets", wrapCkpt, "fb", 2, []string{
			"G0 G1 A0 F0*1 R0 G2 A1 F1*1 R1 A2 F2*1 R2",
			"G2 G1 A2 B2*3 R2 G0 A1 B1*3 R1 A0 B0*3 R0 S0 S1 S2 P0 P1 W0 W1",
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
					steps = AppendBackward(nil, tc.opts, &ps, tc.ddp)
				}
				if got := passString(steps); got != tc.want[i] {
					t.Errorf("pass %d (%c):\n got %s\nwant %s", i, p, got, tc.want[i])
				}
			}
		})
	}
}

// TestStagePassInvariants sweeps wrap × checkpoint × prefetch depth ×
// stack size × DDP all-reduces through the pass sequences a rank runs —
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
						t.Run(name, func(t *testing.T) { checkPassInvariants(t, opts, n, ddp) })
					}
				}
			}
		}
	}
}

func checkPassInvariants(t *testing.T, opts Options, n, ddp int) {
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
			steps = AppendBackward(nil, opts, &ps, ddp)
		} else {
			steps = AppendForward(nil, opts, &ps, pass == 'f')
		}
		key := fmt.Sprintf("%c recomputed=%v", pass, recomputed)
		if prev, ok := seen[key]; ok && prev != passString(steps) {
			t.Fatalf("pass %s compiled to\n%s\nafter\n%s", key, passString(steps), prev)
		}
		seen[key] = passString(steps)
		computed := make([]int, n)
		for i, s := range steps {
			b := s.Block
			at := fmt.Sprintf("pass %c step %d (%s)", pass, i, passString(steps[i:i+1]))
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
			case StepForward, StepRecompute, StepBackward:
				if !live[b] || posted[b] {
					t.Fatalf("%s: computes without its gathered shard", at)
				}
				want := int64(1)
				if s.Op == StepBackward {
					want = 2
					if opts.ActivationCheckpoint && !recomputed {
						want = 3
					}
					rsPosted[b] = true
				}
				if s.Mult != want {
					t.Fatalf("%s: multiple %d, want %d", at, s.Mult, want)
				}
				if (s.Op == StepRecompute) != (pass == 'c') {
					t.Fatalf("%s: wrong compute op for the pass", at)
				}
				computed[b]++
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
			if c != 1 {
				t.Fatalf("pass %c computes block %d %d times", pass, b, c)
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
