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
// 3D core grid, and this rank holds one core.Engine per virtual chunk
// assigned to the stage (one for plain layouts, `chunks` for
// interleaved placement — virtual stage c·PP+s lives on stage s).
// Cross-stage transfers use dedicated two-rank point-to-point groups,
// one per (link, direction): with one group per direction both
// endpoints post transfers in plain schedule order, so the rendezvous
// sequence numbers can never disagree and 1F1B is deadlock-free.
type Engine struct {
	Rank   int
	Coord  Coord
	Layout Layout
	// ChunksPerStage is the interleaving factor v: each rank runs v
	// virtual chunks, giving PP·v virtual stages in total.
	ChunksPerStage int
	// StageRanges are the global [start, end) block ranges of all PP·v
	// virtual stages (virtual-stage index order).
	StageRanges [][2]int
	// Stage holds this rank's virtual-chunk engines in chunk order;
	// Stage[c] runs blocks StageRanges[c·PP + Coord.P].
	Stage  []*core.Engine
	Device *cluster.Device

	// Link groups (nil where the topology has no such link): fwdIn
	// carries activations from the upstream stage, fwdOut to the
	// downstream one; bwdIn/bwdOut carry gradients the opposite way.
	// This rank is rank 1 (receiver) of its In groups and rank 0
	// (sender) of its Out groups. With interleaving the S−1→0 wrap
	// links close the virtual-stage ring.
	fwdIn, fwdOut, bwdIn, bwdOut *comm.Group

	pool *comm.BufPool
	step stepScratch
}

// Build stands up every rank of a 4D layout over the machine's first
// Ranks() devices: per-stage inner 3D communicator grids (each over
// its stage's contiguous device window), per-rank virtual-chunk
// engines sharding the reference stack's stage slices, and the
// point-to-point link groups between counterpart ranks — same (T,F,D)
// — of adjacent stages. chunks ≤ 1 means plain placement (one chunk
// per stage); stageRanges must hold PP·max(chunks,1) contiguous,
// non-empty ranges covering the reference stack exactly.
//
// Pipeline schedules stream several micro-batches through one engine
// before its backwards run, so layouts with PP > 1 or interleaving
// require LayerWrapping and ActivationCheckpoint (the recompute the
// schedule performs is only accounted correctly under the production
// configuration both the paper and DefaultOptions use).
func Build(l Layout, chunks int, stageRanges [][2]int, m *cluster.Machine, ref []*nn.TransformerBlock, opts core.Options) ([]*Engine, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if chunks < 1 {
		chunks = 1
	}
	if (l.PP > 1 || chunks > 1) && (!opts.LayerWrapping || !opts.ActivationCheckpoint) {
		return nil, fmt.Errorf("pp: PP=%d chunks=%d requires LayerWrapping and ActivationCheckpoint", l.PP, chunks)
	}
	K := l.PP * chunks
	if len(stageRanges) != K {
		return nil, fmt.Errorf("pp: %d stage ranges for %d virtual stages", len(stageRanges), K)
	}
	at := 0
	for k, r := range stageRanges {
		if r[0] != at || r[1] <= r[0] {
			return nil, fmt.Errorf("pp: stage range %d is [%d,%d), want a non-empty range starting at %d", k, r[0], r[1], at)
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
	// inner rank): fwd[s][r] is stage s → (s+1) mod PP, bwd[s][r] the
	// reverse. The wrap link exists only under interleaving, where the
	// virtual-stage ring closes.
	fwd := make([][]*comm.Group, l.PP)
	bwd := make([][]*comm.Group, l.PP)
	for s := 0; s < l.PP; s++ {
		next := (s + 1) % l.PP
		if l.PP == 1 || (s == l.PP-1 && chunks == 1) {
			continue
		}
		fwd[s] = make([]*comm.Group, innerN)
		bwd[s] = make([]*comm.Group, innerN)
		for r := 0; r < innerN; r++ {
			up := m.Devices[s*innerN+r]
			down := m.Devices[next*innerN+r]
			fwd[s][r] = comm.NewGroup([]*cluster.Device{up, down})
			bwd[s][r] = comm.NewGroup([]*cluster.Device{down, up})
		}
	}

	engines := make([]*Engine, n)
	for rank := 0; rank < n; rank++ {
		c := l.CoordOf(rank)
		r3 := inner.RankOf(core.Coord{T: c.T, F: c.F, D: c.D})
		e := &Engine{
			Rank:           rank,
			Coord:          c,
			Layout:         l,
			ChunksPerStage: chunks,
			StageRanges:    stageRanges,
			Device:         m.Devices[rank],
			pool:           comm.NewBufPool(),
		}
		for ch := 0; ch < chunks; ch++ {
			rng := stageRanges[ch*l.PP+c.P]
			ce, err := core.NewEngine(r3, inner, stageGroups[c.P][r3], ref[rng[0]:rng[1]], opts, m.Devices[rank])
			if err != nil {
				return nil, err
			}
			e.Stage = append(e.Stage, ce)
		}
		if prev := (c.P - 1 + l.PP) % l.PP; fwd[prev] != nil {
			e.fwdIn = fwd[prev][r3]
			e.bwdOut = bwd[prev][r3]
		}
		if fwd[c.P] != nil {
			e.fwdOut = fwd[c.P][r3]
			e.bwdIn = bwd[c.P][r3]
		}
		engines[rank] = e
	}
	return engines, nil
}

// StepIO supplies one rank's data plane for a step. Shape is the
// micro-batch activation shape every stage exchanges (e.g.
// [1, tokens, dim]); Input is consulted only on first-virtual-stage
// ranks, LossGrad only on last-virtual-stage ranks, and OnMicroGrads
// (optional) fires after each micro-batch's backward so the caller
// can accumulate Stage[chunk].Chunks() gradients — invoked in
// ascending micro order per chunk, matching the reference
// accumulation order bit for bit.
type StepIO struct {
	Shape        []int
	Input        func(mu int) *tensor.Tensor
	LossGrad     func(mu int, y *tensor.Tensor) (float64, *tensor.Tensor)
	OnMicroGrads func(chunk, mu int)
}

// pendingSend is an in-flight cross-stage transfer: the handle plus
// the pooled staging copy the rendezvous will read.
type pendingSend struct {
	h   comm.Handle
	buf []float32
}

// stepScratch is what RunStep needs besides its arguments: this
// stage's op list, the tensors its cross-stage traffic lands in and the
// per-(chunk, micro) bookkeeping tables. All depend only on (kind,
// micros, shape), which a training run never changes between steps, so
// they are built on the first step and reused.
type stepScratch struct {
	kind   ScheduleKind
	micros int
	shape  []int
	ops    []Op // nil until the first RunStep

	// Where the upstream stage's activation (in) and the downstream
	// stage's gradient (dyIn) of each (chunk, micro) are received, or,
	// with PP=1, where the neighbouring chunk writes them. nil where the
	// virtual stage has no such neighbour.
	in, dyIn [][]*tensor.Tensor
	savedIn  [][]*tensor.Tensor // stage inputs per (chunk, micro): Input's tensor or in's
	lastFwd  []int              // most recent forward micro per chunk
	lastY    []*tensor.Tensor   // its output
	sends    []pendingSend      // in-flight transfers, drained per step
}

// scratchFor returns the step scratch for (kind, micros, shape) with
// its tables cleared, rebuilding it when any of the three changed.
func (e *Engine) scratchFor(kind ScheduleKind, micros int, shape []int) (*stepScratch, error) {
	sc := &e.step
	S, v := e.Layout.PP, e.ChunksPerStage
	if sc.ops == nil || sc.kind != kind || sc.micros != micros || !slices.Equal(sc.shape, shape) {
		scheds, err := ScheduleFor(kind, S, v, micros)
		if err != nil {
			return nil, err
		}
		*sc = stepScratch{
			kind: kind, micros: micros, shape: slices.Clone(shape), ops: scheds[e.Coord.P],
			in:      make([][]*tensor.Tensor, v),
			dyIn:    make([][]*tensor.Tensor, v),
			savedIn: make([][]*tensor.Tensor, v),
			lastFwd: make([]int, v),
			lastY:   make([]*tensor.Tensor, v),
		}
		for c := 0; c < v; c++ {
			sc.in[c] = make([]*tensor.Tensor, micros)
			sc.dyIn[c] = make([]*tensor.Tensor, micros)
			sc.savedIn[c] = make([]*tensor.Tensor, micros)
			k := c*S + e.Coord.P
			for mu := 0; mu < micros; mu++ {
				if k > 0 {
					sc.in[c][mu] = tensor.New(shape...)
				}
				if k < S*v-1 {
					sc.dyIn[c][mu] = tensor.New(shape...)
				}
			}
		}
	}
	// A completed step leaves the tables empty; a step that returned an
	// error part-way does not.
	for c := 0; c < v; c++ {
		clear(sc.savedIn[c])
		sc.lastFwd[c], sc.lastY[c] = -1, nil
	}
	sc.sends = sc.sends[:0]
	return sc, nil
}

// RunStep executes one optimizer step's worth of micro-batches
// through this rank's schedule slots. All ranks of the grid must call
// RunStep concurrently with the same kind and micros (SPMD). Sends
// are posted asynchronously at production and drained at the end of
// the step, so downstream transfer overlaps this stage's remaining
// compute; receives block at consumption. The returned loss is the
// sum over micro-batches on last-virtual-stage ranks and 0 elsewhere.
func (e *Engine) RunStep(kind ScheduleKind, micros int, io StepIO) (float64, error) {
	S, v := e.Layout.PP, e.ChunksPerStage
	K := S * v
	n := 1
	for _, d := range io.Shape {
		n *= d
	}
	if n <= 0 {
		return 0, fmt.Errorf("pp: bad step shape %v", io.Shape)
	}
	sc, err := e.scratchFor(kind, micros, io.Shape)
	if err != nil {
		return 0, err
	}
	savedIn, lastFwd, lastY := sc.savedIn, sc.lastFwd, sc.lastY
	var lossSum float64

	for _, op := range sc.ops {
		c, mu := op.Chunk, op.Micro
		k := c*S + e.Coord.P // virtual stage index
		switch op.Kind {
		case Fwd:
			x := sc.in[c][mu] // with PP=1, chunk c-1 wrote it
			if k == 0 {
				x = io.Input(mu)
			} else if S > 1 {
				e.fwdIn.IRecv(1, x.Data()).Wait()
			}
			savedIn[c][mu] = x
			y, err := e.Stage[c].Forward(x)
			if err != nil {
				return 0, err
			}
			lastFwd[c], lastY[c] = mu, y
			// y is module-owned and overwritten before the rendezvous,
			// so a send copies it out.
			if k < K-1 {
				if S == 1 {
					copy(sc.in[c+1][mu].Data(), y.Data())
				} else {
					buf := e.pool.Get(n)
					copy(buf, y.Data())
					sc.sends = append(sc.sends, pendingSend{e.fwdOut.ISend(0, buf), buf})
				}
			}
		case Bwd:
			if lastFwd[c] != mu {
				// Later micro-batches clobbered the chunk's module caches:
				// re-run the stage forward for real (re-gathers, TP
				// reductions, compute all charged) to restore them —
				// that is the recompute 1F1B actually pays on non-final
				// stages.
				y, err := e.Stage[c].Forward(savedIn[c][mu])
				if err != nil {
					return 0, err
				}
				lastFwd[c], lastY[c] = mu, y
				e.Stage[c].NoteRecomputed()
			}
			dy := sc.dyIn[c][mu] // with PP=1, chunk c+1 wrote it
			if k == K-1 {
				var loss float64
				loss, dy = io.LossGrad(mu, lastY[c])
				lossSum += loss
			} else if S > 1 {
				e.bwdIn.IRecv(1, dy.Data()).Wait()
			}
			dx, err := e.Stage[c].Backward(dy)
			if err != nil {
				return 0, err
			}
			if io.OnMicroGrads != nil {
				io.OnMicroGrads(c, mu)
			}
			if k > 0 {
				if S == 1 {
					copy(sc.dyIn[c-1][mu].Data(), dx.Data())
				} else {
					buf := e.pool.Get(n)
					copy(buf, dx.Data())
					sc.sends = append(sc.sends, pendingSend{e.bwdOut.ISend(0, buf), buf})
				}
			}
			savedIn[c][mu] = nil
		}
	}
	for _, s := range sc.sends {
		s.h.Wait()
		e.pool.Put(s.buf)
	}
	return lossSum, nil
}

// Chunks returns the rank-owned parameter chunks of every virtual
// chunk engine, concatenated in chunk order — the optimizer state of
// this rank, in the same per-block order the stage ranges induce.
func (e *Engine) Chunks() []*nn.Param {
	var out []*nn.Param
	for _, ce := range e.Stage {
		out = append(out, ce.Chunks()...)
	}
	return out
}

// ExportChunks copies out the rank-owned chunk weights of every
// virtual chunk engine, concatenated in chunk order (aligned with
// Chunks and LogicalFlatLens).
func (e *Engine) ExportChunks() [][]float32 {
	var out [][]float32
	for _, ce := range e.Stage {
		out = append(out, ce.ExportChunks()...)
	}
	return out
}

// ImportChunks restores chunks written by ExportChunks (possibly
// resharded by the checkpoint layer), split back across the virtual
// chunk engines.
func (e *Engine) ImportChunks(chunks [][]float32) {
	off := 0
	for _, ce := range e.Stage {
		n := len(ce.Chunks())
		ce.ImportChunks(chunks[off : off+n])
		off += n
	}
	if off != len(chunks) {
		panic(fmt.Sprintf("pp: ImportChunks got %d chunks, engines hold %d", len(chunks), off))
	}
}

// LogicalFlatLens concatenates the per-chunk logical flat lengths in
// chunk order (what a stage's shard records in the manifest).
func (e *Engine) LogicalFlatLens() []int {
	var out []int
	for _, ce := range e.Stage {
		out = append(out, ce.LogicalFlatLens()...)
	}
	return out
}

// PoisonComm aborts every communicator this rank may block on: the
// inner 3D groups of each chunk engine plus the four pipeline link
// groups, so a killed stage's peers unwind with comm.Poisoned instead
// of waiting forever on a send that will never rendezvous.
func (e *Engine) PoisonComm() {
	for _, ce := range e.Stage {
		ce.PoisonComm()
	}
	for _, g := range []*comm.Group{e.fwdIn, e.fwdOut, e.bwdIn, e.bwdOut} {
		if g != nil {
			g.Poison()
		}
	}
}
