package pp

import (
	"fmt"
	"slices"

	"orbit/internal/cluster"
	"orbit/internal/comm"
	"orbit/internal/core"
	"orbit/internal/nn"
	"orbit/internal/tensor"
)

// Engine is one global rank of the 4D TP×PP×FSDP×DDP composition: the
// rank's stage owns a contiguous window of devices running an inner
// 3D core grid, and this rank holds that grid's core.Engine over the
// stage's blocks. Cross-stage transfers use dedicated two-rank
// point-to-point groups, one per (link, direction): with one group per
// direction both endpoints post transfers in plain schedule order, so
// the rendezvous sequence numbers can never disagree and 1F1B is
// deadlock-free.
type Engine struct {
	Rank   int
	Coord  Coord
	Layout Layout
	// Stage runs this rank's shard of the stage's block range.
	Stage  *core.Engine
	Device *cluster.Device

	// Link groups (nil where the stage has no such neighbour): fwdIn
	// carries activations from the upstream stage, fwdOut to the
	// downstream one; bwdIn/bwdOut carry gradients the opposite way.
	// This rank is rank 1 (receiver) of its In groups and rank 0
	// (sender) of its Out groups.
	fwdIn, fwdOut, bwdIn, bwdOut *comm.Group

	step stepScratch
}

// Build stands up every rank of a 4D layout over the machine's first
// Ranks() devices: per-stage inner 3D communicator grids (each over
// its stage's contiguous device window), per-rank engines sharding the
// reference stack's stage slices, and the point-to-point link groups
// between counterpart ranks — same (T,F,D) — of adjacent stages.
// stageRanges must hold PP contiguous, non-empty ranges covering the
// reference stack exactly (UniformPartition's cut).
//
// The 1F1B schedule streams several micro-batches through one engine
// before their backwards run, so layouts with PP > 1 require
// LayerWrapping and ActivationCheckpoint (the recompute the schedule
// charges is only accounted correctly under the production
// configuration both the paper and DefaultOptions use).
func Build(l Layout, stageRanges [][2]int, m *cluster.Machine, ref []*nn.TransformerBlock, opts core.Options) ([]*Engine, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if l.PP > 1 && (!opts.LayerWrapping || !opts.ActivationCheckpoint) {
		return nil, fmt.Errorf("pp: PP=%d requires LayerWrapping and ActivationCheckpoint", l.PP)
	}
	if len(stageRanges) != l.PP {
		return nil, fmt.Errorf("pp: %d stage ranges for %d stages", len(stageRanges), l.PP)
	}
	at := 0
	for s, r := range stageRanges {
		if r[0] != at || r[1] <= r[0] {
			return nil, fmt.Errorf("pp: stage range %d is [%d,%d), want a non-empty range starting at %d", s, r[0], r[1], at)
		}
		at = r[1]
	}
	if at != len(ref) {
		return nil, fmt.Errorf("pp: stage ranges cover %d blocks, reference stack has %d", at, len(ref))
	}
	n := l.Ranks()
	if len(m.Devices) < n {
		return nil, fmt.Errorf("pp: layout needs %d devices, machine has %d", n, len(m.Devices))
	}

	inner := l.Inner()
	innerN := inner.Ranks()
	stageGroups := make([][]*core.Groups, l.PP)
	for p := 0; p < l.PP; p++ {
		gs, err := core.BuildGroupsOver(inner, m.Devices[p*innerN:(p+1)*innerN])
		if err != nil {
			return nil, err
		}
		stageGroups[p] = gs
	}

	// One point-to-point group per (adjacent-stage link, direction,
	// inner rank): fwd[s][r] is stage s → s+1, bwd[s][r] the reverse.
	fwd := make([][]*comm.Group, l.PP-1)
	bwd := make([][]*comm.Group, l.PP-1)
	for s := range fwd {
		fwd[s] = make([]*comm.Group, innerN)
		bwd[s] = make([]*comm.Group, innerN)
		for r := 0; r < innerN; r++ {
			up := m.Devices[s*innerN+r]
			down := m.Devices[(s+1)*innerN+r]
			fwd[s][r] = comm.NewGroup([]*cluster.Device{up, down})
			bwd[s][r] = comm.NewGroup([]*cluster.Device{down, up})
		}
	}

	engines := make([]*Engine, n)
	for rank := 0; rank < n; rank++ {
		c := l.CoordOf(rank)
		r3 := inner.RankOf(core.Coord{T: c.T, F: c.F, D: c.D})
		rng := stageRanges[c.P]
		stage, err := core.NewEngine(r3, inner, stageGroups[c.P][r3], ref[rng[0]:rng[1]], opts, m.Devices[rank])
		if err != nil {
			return nil, err
		}
		e := &Engine{Rank: rank, Coord: c, Layout: l, Stage: stage, Device: m.Devices[rank]}
		if c.P > 0 {
			e.fwdIn = fwd[c.P-1][r3]
			e.bwdOut = bwd[c.P-1][r3]
		}
		if c.P < l.PP-1 {
			e.fwdOut = fwd[c.P][r3]
			e.bwdIn = bwd[c.P][r3]
		}
		engines[rank] = e
	}
	return engines, nil
}

// StepIO supplies one rank's data plane for a step. Shape is the
// micro-batch activation shape every stage exchanges (e.g.
// [1, tokens, dim]); Input is consulted only on first-stage ranks,
// LossGrad only on last-stage ranks, and OnMicroGrads (optional) fires
// after each micro-batch's backward, in ascending micro order — a
// per-micro-batch beat on every stage. The gradients need no caller:
// the stage engine sums them into Stage.Chunks().
type StepIO struct {
	Shape        []int
	Input        func(mu int) *tensor.Tensor
	LossGrad     func(mu int, y *tensor.Tensor) (float64, *tensor.Tensor)
	OnMicroGrads func(mu int)
}

// stepScratch is what RunStep needs besides its arguments: this
// stage's op list, the tensors its cross-stage traffic lands in and
// leaves from, and the per-micro bookkeeping. All depend only on
// (micros, shape), which a training run never changes between steps,
// so they are built on the first step and reused.
type stepScratch struct {
	micros int
	shape  []int
	ops    []Op // nil until the first RunStep

	// Per micro: where the upstream stage's activation (in) and the
	// downstream stage's gradient (dyIn) are received, and the copies
	// of this stage's output (ySend) and input gradient (dxSend) an
	// in-flight send reads. nil where the stage has no such link.
	in, dyIn, ySend, dxSend []*tensor.Tensor
	savedIn                 []*tensor.Tensor // stage input per micro: Input's tensor or in's
	y                       []*tensor.Tensor // stage output per micro, owned by its activation set
	holder                  []int            // per activation set: 1 + the micro it holds, 0 when free
	sends                   []comm.Handle    // in-flight transfers, drained per step
}

// perMicro returns one tensor of shape per micro-batch where link
// exists, nil where it does not.
func perMicro(link *comm.Group, micros int, shape []int) []*tensor.Tensor {
	if link == nil {
		return nil
	}
	out := make([]*tensor.Tensor, micros)
	for mu := range out {
		out[mu] = tensor.New(shape...)
	}
	return out
}

// inFlight is the most micro-batches ops holds between their forward
// and their backward — under 1F1B min(stages − s, micros) on stage s —
// and so the number of activation sets the stage needs.
func inFlight(ops []Op) int {
	n, most := 0, 0
	for _, op := range ops {
		if op.Kind == Bwd {
			n--
			continue
		}
		n++
		most = max(most, n)
	}
	return most
}

// scratchFor returns the step scratch for (micros, shape) with its
// bookkeeping cleared, rebuilding it when either changed.
func (e *Engine) scratchFor(micros int, shape []int) (*stepScratch, error) {
	sc := &e.step
	if sc.ops == nil || sc.micros != micros || !slices.Equal(sc.shape, shape) {
		scheds, err := ScheduleFor(Schedule1F1B, e.Layout.PP, 1, micros)
		if err != nil {
			return nil, err
		}
		ops := scheds[e.Coord.P]
		*sc = stepScratch{
			micros: micros, shape: slices.Clone(shape), ops: ops,
			in:      perMicro(e.fwdIn, micros, shape),
			dyIn:    perMicro(e.bwdIn, micros, shape),
			ySend:   perMicro(e.fwdOut, micros, shape),
			dxSend:  perMicro(e.bwdOut, micros, shape),
			savedIn: make([]*tensor.Tensor, micros),
			y:       make([]*tensor.Tensor, micros),
			holder:  make([]int, inFlight(ops)),
		}
	}
	// A completed step leaves the tables empty; a step that returned an
	// error part-way does not.
	clear(sc.savedIn)
	clear(sc.holder)
	sc.sends = sc.sends[:0]
	return sc, nil
}

// send posts src to link from its step-scratch slot buf: src is
// module-owned and overwritten before the rendezvous reads it.
func (sc *stepScratch) send(link *comm.Group, buf, src *tensor.Tensor) {
	copy(buf.Data(), src.Data())
	sc.sends = append(sc.sends, link.ISend(0, buf.Data()))
}

// RunStep executes one optimizer step's worth of micro-batches
// through this rank's 1F1B slots. All ranks of the grid must call
// RunStep concurrently with the same micros (SPMD). Sends are posted
// asynchronously at production and drained at the end of the step, so
// downstream transfer overlaps this stage's remaining compute;
// receives block at consumption. The returned loss is the sum over
// micro-batches on last-stage ranks and 0 elsewhere. The step starts
// with Stage.ZeroGrad, and on return Stage.Chunks() hold the sum of the
// micro-batches' gradients, added in ascending micro order — bit for
// bit the 3D engine's sum over the same micro-batches.
//
// Each micro-batch's forward runs on a free activation set of the
// stage and its backward on the same set, which still holds the
// micro-batch's activations: no stage forward is re-run on the host.
func (e *Engine) RunStep(micros int, io StepIO) (float64, error) {
	for _, d := range io.Shape {
		if d <= 0 {
			return 0, fmt.Errorf("pp: bad step shape %v", io.Shape)
		}
	}
	sc, err := e.scratchFor(micros, io.Shape)
	if err != nil {
		return 0, err
	}
	e.Stage.ZeroGrad()
	first, last := e.fwdIn == nil, e.fwdOut == nil
	var lossSum float64
	for _, op := range sc.ops {
		mu := op.Micro
		switch op.Kind {
		case Fwd:
			var x *tensor.Tensor
			if first {
				x = io.Input(mu)
			} else {
				x = sc.in[mu]
				e.fwdIn.IRecv(1, x.Data()).Wait()
			}
			sc.savedIn[mu] = x
			k := slices.Index(sc.holder, 0) // the op list sized the sets: one is free
			sc.holder[k] = mu + 1
			e.Stage.UseActivationSet(k)
			y, err := e.Stage.Forward(x)
			if err != nil {
				return 0, err
			}
			sc.y[mu] = y
			if !last {
				sc.send(e.fwdOut, sc.ySend[mu], y)
			}
		case Bwd:
			k := slices.Index(sc.holder, mu+1)
			if k < 0 {
				panic(fmt.Sprintf("pp: no activation set holds micro-batch %d at its backward", mu))
			}
			e.Stage.UseActivationSet(k)
			if op.Recompute {
				// The real stage recomputes its checkpointed forward
				// here. The set already holds those values, so only the
				// cost is paid — gathers, TP all-reduces and compute.
				if err := e.Stage.ChargeForward(sc.savedIn[mu]); err != nil {
					return 0, err
				}
			}
			var dy *tensor.Tensor
			if last {
				var loss float64
				loss, dy = io.LossGrad(mu, sc.y[mu])
				lossSum += loss
			} else {
				dy = sc.dyIn[mu]
				e.bwdIn.IRecv(1, dy.Data()).Wait()
			}
			dx, err := e.Stage.Backward(dy)
			if err != nil {
				return 0, err
			}
			if io.OnMicroGrads != nil {
				io.OnMicroGrads(mu)
			}
			if !first {
				sc.send(e.bwdOut, sc.dxSend[mu], dx)
			}
			sc.savedIn[mu], sc.holder[k] = nil, 0
		}
	}
	for _, h := range sc.sends {
		h.Wait()
	}
	return lossSum, nil
}

// PoisonComm aborts every communicator this rank may block on: the
// stage engine's inner 3D groups plus the pipeline link groups, so a
// killed stage's peers unwind with comm.Poisoned instead of waiting
// forever on a send that will never rendezvous.
func (e *Engine) PoisonComm() {
	e.Stage.PoisonComm()
	for _, g := range []*comm.Group{e.fwdIn, e.fwdOut, e.bwdIn, e.bwdOut} {
		if g != nil {
			g.Poison()
		}
	}
}
