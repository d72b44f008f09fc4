package core

import "slices"

// A stage pass — one Forward, ChargeForward or Backward over a rank's
// block stack — is compiled to data, in the order of the paper's Sec.
// III-B: gathers prefetched ahead of compute, each block half's TP
// all-reduce, reduce-scatters drained behind the backward, the
// checkpointed recompute charged. Engine runs the list; internal/plan
// lowers it into its replay, so the order exists once.

// StepOp is what one Step does to block Block.
type StepOp uint8

const (
	StepGather      StepOp = iota // allocate the gather buffer, post the FSDP all-gather
	StepAwaitGather               // wait for the gather
	StepRelease                   // free the gather buffer
	StepHold                      // keep the activations resident (checkpointing off)
	StepDrop                      // free them, in the backward
	StepCompute                   // charge Mult, run nn.TransformerBlock.Half(Half)
	StepPostTP                    // post the TP all-reduce of Partial(Half)
	StepAwaitTP                   // wait for it, then Join(Half)
	StepPostRS                    // post the gradient reduce-scatter
	StepAwaitRS                   // wait for the reduce-scatter
	StepPostDDP                   // post outer DDP all-reduce Block (a bucket, or one chunk)
	StepAwaitDDP                  // wait for it
)

// Step is one operation of a compiled pass: Op on block Block, or on
// its half Half, charging Mult forward-equivalents of compute where Op
// computes. The charge sits on a block's first half, 0 on its second.
type Step struct {
	Op    StepOp
	Half  uint8
	Block int
	Mult  int64
}

// PassState is what one pass leaves the next: which blocks' gather
// buffers are live (posted and not yet released), and whether the last
// forward was a charged recompute, which makes the next backward charge
// two forward-equivalents instead of three.
type PassState struct {
	live       []bool
	recomputed bool
}

// Reset starts a stack of n blocks with no buffer live.
func (ps *PassState) Reset(n int) {
	ps.live = slices.Grow(ps.live[:0], n)[:n]
	clear(ps.live)
	ps.recomputed = false
}

// prefetch posts the gathers of block b and of the next PrefetchDepth
// blocks in direction dir that are not live yet, then awaits block b's.
func (ps *PassState) prefetch(dst []Step, opts Options, b, dir int) []Step {
	for k := 0; k <= opts.PrefetchDepth; k++ {
		if n := b + dir*k; n >= 0 && n < len(ps.live) && !ps.live[n] {
			ps.live[n] = true
			dst = append(dst, Step{Op: StepGather, Block: n})
		}
	}
	return append(dst, Step{Op: StepAwaitGather, Block: b})
}

// AppendForward appends one forward pass to dst: a run of Forward, or,
// when run is false, the charge-only recompute of ChargeForward, which
// runs the same steps without compute. With LayerWrapping each block's
// shard is gathered just ahead of it and released after it; without,
// the whole stack is gathered up front and stays live until the
// backward.
func AppendForward(dst []Step, opts Options, ps *PassState, run bool) []Step {
	n := len(ps.live)
	if !opts.LayerWrapping {
		for b := 0; b < n; b++ {
			ps.live[b] = true
			dst = append(dst, Step{Op: StepGather, Block: b})
		}
		for b := 0; b < n; b++ {
			dst = append(dst, Step{Op: StepAwaitGather, Block: b})
		}
	}
	for b := 0; b < n; b++ {
		if opts.LayerWrapping {
			dst = ps.prefetch(dst, opts, b, 1)
		}
		if !opts.ActivationCheckpoint {
			dst = append(dst, Step{Op: StepHold, Block: b})
		}
		dst = appendHalves(dst, b, 0, 1, false)
		if opts.LayerWrapping {
			ps.live[b] = false
			dst = append(dst, Step{Op: StepRelease, Block: b})
		}
	}
	ps.recomputed = !run
	return dst
}

// AppendBackward appends one backward pass to dst, in reverse block
// order, then the reduce-scatter drain and ddp outer all-reduces
// (posted together, awaited in order). Under ActivationCheckpoint the
// real system recomputes each block's forward before its gradient
// math; the charge is three forward-equivalents, or two when the pass
// follows a charged recompute (AppendForward with run false). qk adds
// the all-reduce of the packed QK-norm gradients (Half 4).
func AppendBackward(dst []Step, opts Options, ps *PassState, ddp int, qk bool) []Step {
	n := len(ps.live)
	mult := int64(2)
	if opts.ActivationCheckpoint && !ps.recomputed {
		mult = 3
	}
	for b := n - 1; b >= 0; b-- {
		if opts.LayerWrapping {
			dst = ps.prefetch(dst, opts, b, -1)
		}
		if !opts.ActivationCheckpoint {
			dst = append(dst, Step{Op: StepDrop, Block: b})
		}
		ps.live[b] = false
		dst = appendHalves(dst, b, 2, mult, qk)
		dst = append(dst, Step{Op: StepPostRS, Block: b}, Step{Op: StepRelease, Block: b})
	}
	for b := 0; b < n; b++ {
		dst = append(dst, Step{Op: StepAwaitRS, Block: b})
	}
	for i := 0; i < ddp; i++ {
		dst = append(dst, Step{Op: StepPostDDP, Block: i})
	}
	for i := 0; i < ddp; i++ {
		dst = append(dst, Step{Op: StepAwaitDDP, Block: i})
	}
	ps.recomputed = false
	return dst
}

// appendHalves appends halves h and h+1 of block b, each followed by
// its TP all-reduce, and the QK-norm one (if qk) before half 3's.
func appendHalves(dst []Step, b int, h uint8, mult int64, qk bool) []Step {
	for k := h; k < h+2; k++ {
		dst = append(dst, Step{Op: StepCompute, Half: k, Block: b, Mult: mult})
		mult = 0
		if qk && k == 3 {
			dst = append(dst, Step{Op: StepPostTP, Half: 4, Block: b}, Step{Op: StepAwaitTP, Half: 4, Block: b})
		}
		dst = append(dst, Step{Op: StepPostTP, Half: k, Block: b}, Step{Op: StepAwaitTP, Half: k, Block: b})
	}
	return dst
}
