package plan

import (
	"fmt"
	"math"

	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/pp"
)

// This file is the step-time predictor: a deterministic replay of the
// exact instruction stream the engines execute — each rank's 1F1B
// schedule slots as pp.Engine.RunStep walks them, and inside each slot
// core.Engine's collective schedule — priced with the identical cost
// semantics internal/comm charges to the simulated device clocks:
// per-group α–β ring costs over the group's link class, rendezvous at
// the latest poster's clock, serialization of in-flight collectives on
// each group's single communication stream, and wait-time attribution
// only for the gap local compute did not already cover. Activation
// receives block at consumption, sends post asynchronously and drain
// at the end of the step, and a stale-cache backward re-runs the stage
// forward for real before charging the cheaper (2×) backward — so
// pipeline bubbles fall out of the replay rather than an analytic
// S·(M+S−1) formula: a stage idling in warmup simply accrues wait time
// on the first transfer it consumes, and that is what
// Prediction.PPWait reports. A PP=1 layout is the same replay over a
// single stage with no links. No data moves; only clocks.

// simPending mirrors comm.pending for one in-flight collective.
type simPending struct {
	cost, tmax, completion float64
	posted, waited         int
	done                   bool
}

// simGroup mirrors comm.Group: a communicator with one serialized
// stream and link parameters chosen by whether its members share a
// node (Infinity Fabric) or span nodes (Slingshot).
type simGroup struct {
	size       int
	lat, bw    float64
	streamFree float64
	pend       map[int]*simPending
}

func newSimGroup(members []int, gpn int, spec cluster.Spec) *simGroup {
	g := &simGroup{
		size: len(members),
		lat:  spec.InterNodeLatency,
		bw:   spec.InterNodeBandwidth,
		pend: make(map[int]*simPending),
	}
	sameNode := true
	for _, r := range members[1:] {
		if r/gpn != members[0]/gpn {
			sameNode = false
			break
		}
	}
	if sameNode {
		g.lat = spec.IntraNodeLatency
		g.bw = spec.IntraNodeBandwidth
	}
	return g
}

// ring mirrors comm.Group.ringCost.
func (g *simGroup) ring(bytes int) float64 {
	if g.size == 1 {
		return 0
	}
	p := float64(g.size)
	return (p - 1) * (g.lat + float64(bytes)/p/g.bw)
}

func (g *simGroup) allGatherCost(shardLen int) float64 { return g.ring(4 * shardLen * g.size) }
func (g *simGroup) allReduceCost(n int) float64        { return 2 * g.ring(4*n) }
func (g *simGroup) reduceScatterCost(n int) float64    { return g.ring(4 * n) }

// p2pCost mirrors comm.Group.p2pCost: the store-and-forward price of
// one point-to-point message over the group's link class.
func (g *simGroup) p2pCost(n int) float64 { return g.lat + float64(4*n)/g.bw }

// Wait-phase attribution labels.
const (
	phGather = iota
	phTP
	phRS
	phDDP
	phPP
	phCount
)

// instr opcodes.
const (
	opPost = iota
	opWait
	opCompute
	opAlloc
	opFree
)

type instr struct {
	op, phase uint8
	g         *simGroup
	seq       int
	cost      float64 // collective cost (post) or seconds (compute)
	bytes     int64   // alloc/free
}

// progBuilder accumulates one rank's program; posting sequence
// numbers per group continue across steps, exactly like comm.Group's
// per-rank counters.
type progBuilder struct {
	instrs []instr
	seq    map[*simGroup]int
}

func (b *progBuilder) post(g *simGroup, cost float64) int {
	s := b.seq[g]
	b.seq[g] = s + 1
	b.instrs = append(b.instrs, instr{op: opPost, g: g, seq: s, cost: cost})
	return s
}

func (b *progBuilder) wait(g *simGroup, seq int, phase uint8) {
	b.instrs = append(b.instrs, instr{op: opWait, g: g, seq: seq, phase: phase})
}

// sync is a post immediately followed by its wait (the synchronous
// destination-passing collectives the TP block uses).
func (b *progBuilder) sync(g *simGroup, cost float64, phase uint8) {
	b.wait(g, b.post(g, cost), phase)
}

func (b *progBuilder) compute(sec float64) {
	b.instrs = append(b.instrs, instr{op: opCompute, cost: sec})
}

func (b *progBuilder) alloc(bytes int64) {
	b.instrs = append(b.instrs, instr{op: opAlloc, bytes: bytes})
}

func (b *progBuilder) free(bytes int64) {
	b.instrs = append(b.instrs, instr{op: opFree, bytes: bytes})
}

func (b *progBuilder) take() []instr {
	out := b.instrs
	b.instrs = nil
	return out
}

// simDev mirrors cluster.Device's clock and memory accounting.
type simDev struct {
	clock     float64
	mem, peak int64
	capacity  int64
	oom       bool
	compute   float64
	waits     [phCount]float64
}

// runPrograms executes one SPMD round of per-rank instruction lists
// against the shared groups, advancing clocks with comm's rendezvous
// and stream rules. Ranks advance until they block on a wait whose
// collective has not fully posted; the round-robin repeats until all
// programs retire.
func runPrograms(progs [][]instr, devs []*simDev) error {
	ptr := make([]int, len(progs))
	for {
		progress := false
		for r := range progs {
			d := devs[r]
			for ptr[r] < len(progs[r]) {
				in := &progs[r][ptr[r]]
				if in.op == opWait {
					p := in.g.pend[in.seq]
					if p == nil || !p.done {
						break // rendezvous incomplete; try other ranks
					}
					if p.completion > d.clock {
						d.waits[in.phase] += p.completion - d.clock
						d.clock = p.completion
					}
					p.waited++
					if p.waited == in.g.size {
						delete(in.g.pend, in.seq)
					}
				} else {
					switch in.op {
					case opPost:
						g := in.g
						p := g.pend[in.seq]
						if p == nil {
							p = &simPending{cost: in.cost}
							g.pend[in.seq] = p
						} else if p.cost != in.cost {
							return fmt.Errorf("plan: replay ordering violation: cost %v posted against %v at seq %d",
								in.cost, p.cost, in.seq)
						}
						if d.clock > p.tmax {
							p.tmax = d.clock
						}
						p.posted++
						if p.posted == g.size {
							start := p.tmax
							if g.streamFree > start {
								start = g.streamFree
							}
							p.completion = start + p.cost
							g.streamFree = p.completion
							p.done = true
						}
					case opCompute:
						d.clock += in.cost
						d.compute += in.cost
					case opAlloc:
						d.mem += in.bytes
						if d.mem > d.peak {
							d.peak = d.mem
						}
						if d.mem > d.capacity {
							d.oom = true
						}
					case opFree:
						d.mem -= in.bytes
					}
				}
				ptr[r]++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for r := range progs {
		if ptr[r] != len(progs[r]) {
			return fmt.Errorf("plan: replay deadlock: rank %d stuck at instruction %d/%d", r, ptr[r], len(progs[r]))
		}
	}
	return nil
}

// rankCtx is everything one rank's program generation needs: the
// inner-grid communicators and per-block state over the rank's stage
// slice (bufLive has one entry per stage block), plus the pipeline
// link endpoints (nil where the topology has no such link).
type rankCtx struct {
	tpG, fsdpG, ddpG             *simGroup
	fwdIn, fwdOut, bwdIn, bwdOut *simGroup
	builder                      *progBuilder
	bufLive                      []bool
	gatherSeq, rsSeq             []int
	chunkLen, flatLen            int
	gatherBytes                  int64
	actBytes                     int64
	fwdSec                       float64
	// bwdFresh is the backward charge when the forward cache is fresh
	// (the recompute forward included under ActivationCheckpoint);
	// bwdRecomputed the 2× charge after the schedule performed a real
	// recompute forward.
	bwdFresh, bwdRecomputed float64
}

func (rc *rankCtx) postGather(b int) {
	rc.builder.alloc(rc.gatherBytes)
	rc.gatherSeq[b] = rc.builder.post(rc.fsdpG, rc.fsdpG.allGatherCost(rc.chunkLen))
	rc.bufLive[b] = true
}

func (rc *rankCtx) release(b int) {
	rc.builder.free(rc.gatherBytes)
	rc.bufLive[b] = false
}

// prefetchDepth derives the in-flight gather depth the options imply.
func prefetchDepth(opts core.Options) int {
	if !opts.Prefetch {
		return 0
	}
	if opts.PrefetchDepth > 1 {
		return opts.PrefetchDepth
	}
	return 1
}

// stageForward emits one Engine.Forward pass over the rank's stage
// slice, mirroring core.Engine instruction for instruction (also as
// the real recompute the 1F1B schedule performs on stale-cache
// backwards).
func stageForward(rc *rankCtx, opts core.Options, depth int, arCost float64) {
	bld := rc.builder
	L := len(rc.bufLive)
	if !opts.LayerWrapping {
		for b := 0; b < L; b++ {
			rc.postGather(b)
		}
		for b := 0; b < L; b++ {
			bld.wait(rc.fsdpG, rc.gatherSeq[b], phGather)
		}
	}
	for b := 0; b < L; b++ {
		if opts.LayerWrapping {
			if !rc.bufLive[b] {
				rc.postGather(b)
			}
			for k := 1; k <= depth && b+k < L; k++ {
				if !rc.bufLive[b+k] {
					rc.postGather(b + k)
				}
			}
			bld.wait(rc.fsdpG, rc.gatherSeq[b], phGather)
		}
		if !opts.ActivationCheckpoint {
			bld.alloc(rc.actBytes)
		}
		bld.compute(rc.fwdSec)
		bld.sync(rc.tpG, arCost, phTP) // attention partial sum
		bld.sync(rc.tpG, arCost, phTP) // MLP partial sum
		if opts.LayerWrapping {
			rc.release(b)
		}
	}
}

// stageBackward emits one Engine.Backward pass (per-block compute at
// bwdSec, TP reductions, the reduce-scatter drain, and the per-call
// outer DDP reduction) over the rank's stage slice.
func stageBackward(rc *rankCtx, w Workload, opts core.Options, depth int, arCost, qkCost, bwdSec float64) {
	bld := rc.builder
	L := len(rc.bufLive)
	for b := L - 1; b >= 0; b-- {
		if opts.LayerWrapping {
			if !rc.bufLive[b] {
				rc.postGather(b)
			}
			for k := 1; k <= depth && b-k >= 0; k++ {
				if !rc.bufLive[b-k] {
					rc.postGather(b - k)
				}
			}
			bld.wait(rc.fsdpG, rc.gatherSeq[b], phGather)
		}
		if !opts.ActivationCheckpoint {
			bld.free(rc.actBytes)
		}
		bld.compute(bwdSec)
		bld.sync(rc.tpG, arCost, phTP) // MLP input-gradient sum
		if w.QKNorm && rc.tpG.size > 1 {
			bld.sync(rc.tpG, qkCost, phTP) // packed QK-norm grads
		}
		bld.sync(rc.tpG, arCost, phTP) // attention input-gradient sum
		rc.rsSeq[b] = bld.post(rc.fsdpG, rc.fsdpG.reduceScatterCost(rc.flatLen))
		rc.release(b)
	}
	for b := 0; b < L; b++ {
		bld.wait(rc.fsdpG, rc.rsSeq[b], phRS)
	}
	// --- outer DDP gradient reduction ---
	if rc.ddpG.size > 1 {
		lens := make([]int, L)
		for i := range lens {
			lens[i] = rc.chunkLen
		}
		if opts.DDPBucketBytes > 0 {
			var bucketLens []int
			for _, r := range core.BucketRanges(lens, opts.DDPBucketBytes) {
				bucketLens = append(bucketLens, (r[1]-r[0])*rc.chunkLen)
			}
			lens = bucketLens
		}
		seqs := make([]int, len(lens))
		for i, n := range lens {
			seqs[i] = bld.post(rc.ddpG, rc.ddpG.allReduceCost(n))
		}
		for _, s := range seqs {
			bld.wait(rc.ddpG, s, phDDP)
		}
	}
}

// buildStep4 emits one rank's optimizer step: its stage's schedule
// slots, mirroring pp.Engine.RunStep instruction for instruction.
// actFloats is the float32 count of one cross-stage message (the
// micro-batch activation shape).
func buildStep4(rc *rankCtx, w Workload, opts core.Options, sched []pp.Op, actFloats int) {
	bld := rc.builder
	depth := prefetchDepth(opts)
	arCost := rc.tpG.allReduceCost(w.Tokens * w.Dim)
	qkCost := rc.tpG.allReduceCost(4 * (w.Dim / w.Heads))
	type deferredSend struct {
		g   *simGroup
		seq int
	}
	lastFwd := -1
	var sends []deferredSend
	for _, op := range sched {
		switch op.Kind {
		case pp.Fwd:
			if rc.fwdIn != nil {
				bld.wait(rc.fwdIn, bld.post(rc.fwdIn, rc.fwdIn.p2pCost(actFloats)), phPP)
			}
			stageForward(rc, opts, depth, arCost)
			lastFwd = op.Micro
			if rc.fwdOut != nil {
				sends = append(sends, deferredSend{rc.fwdOut, bld.post(rc.fwdOut, rc.fwdOut.p2pCost(actFloats))})
			}
		case pp.Bwd:
			bwdSec := rc.bwdFresh
			if lastFwd != op.Micro {
				// Later micro-batches clobbered the stage's caches: the
				// engine re-runs the forward for real (gathers, TP
				// reductions, compute all charged), then pays the 2×
				// backward.
				stageForward(rc, opts, depth, arCost)
				lastFwd = op.Micro
				bwdSec = rc.bwdRecomputed
			}
			if rc.bwdIn != nil {
				bld.wait(rc.bwdIn, bld.post(rc.bwdIn, rc.bwdIn.p2pCost(actFloats)), phPP)
			}
			stageBackward(rc, w, opts, depth, arCost, qkCost, bwdSec)
			if rc.bwdOut != nil {
				sends = append(sends, deferredSend{rc.bwdOut, bld.post(rc.bwdOut, rc.bwdOut.p2pCost(actFloats))})
			}
		}
	}
	for _, s := range sends {
		bld.wait(s.g, s.seq, phPP)
	}
}

// infeasible is the prediction of a candidate that cannot run at all;
// Rank4 sorts it last.
func infeasible(note string) Prediction {
	return Prediction{Note: note, OOM: true, StepTime: math.Inf(1)}
}

// Predict4 prices one candidate: it replays two measured steps of the
// engines' schedule (after one warm-up step, so stream and clock
// offsets reach their steady state) and reports the per-step time,
// the per-phase breakdown of the critical rank, and both memory
// models. The returned prediction is self-contained and
// JSON-serializable — Plan4.Explain renders it.
func Predict4(w Workload, c ClusterShape, cand Candidate4) Prediction {
	if err := w.Validate(); err != nil {
		return infeasible(err.Error())
	}
	layout := cand.Layout
	S := layout.PP
	opts := cand.Options(w.Opts)
	if S > 1 && (!opts.LayerWrapping || !opts.ActivationCheckpoint) {
		return infeasible("PP>1 requires LayerWrapping and ActivationCheckpoint")
	}
	R := layout.Ranks()
	if R > c.Devices() {
		return infeasible(fmt.Sprintf("layout needs %d devices, cluster has %d", R, c.Devices()))
	}
	inner := layout.Inner()
	micros, err := microBatches(w, inner)
	if err != nil {
		return infeasible(err.Error())
	}
	stages, err := pp.UniformPartition(w.Layers, S) // rejects S > Layers
	if err != nil {
		return infeasible(err.Error())
	}
	scheds, err := pp.ScheduleFor(pp.Schedule1F1B, S, 1, micros)
	if err != nil {
		return infeasible(err.Error())
	}
	gpn := c.GPUsPerNode
	spec := c.Spec
	innerN := inner.Ranks()

	// Per-stage inner communicator grids over the stage's contiguous
	// device window, exactly as pp.Build lays them out.
	members := func(n int, rankOf func(i int) int) []int {
		ms := make([]int, n)
		for i := range ms {
			ms[i] = rankOf(i)
		}
		return ms
	}
	tpGroups := make(map[[3]int]*simGroup)
	fsdpGroups := make(map[[3]int]*simGroup)
	ddpGroups := make(map[[3]int]*simGroup)
	for p := 0; p < S; p++ {
		base := p * innerN
		for d := 0; d < inner.DDP; d++ {
			for f := 0; f < inner.FSDP; f++ {
				tpGroups[[3]int{p, d, f}] = newSimGroup(members(inner.TP, func(t int) int {
					return base + inner.RankOf(core.Coord{T: t, F: f, D: d})
				}), gpn, spec)
			}
			for t := 0; t < inner.TP; t++ {
				fsdpGroups[[3]int{p, d, t}] = newSimGroup(members(inner.FSDP, func(f int) int {
					return base + inner.RankOf(core.Coord{T: t, F: f, D: d})
				}), gpn, spec)
			}
		}
		for f := 0; f < inner.FSDP; f++ {
			for t := 0; t < inner.TP; t++ {
				ddpGroups[[3]int{p, f, t}] = newSimGroup(members(inner.DDP, func(d int) int {
					return base + inner.RankOf(core.Coord{T: t, F: f, D: d})
				}), gpn, spec)
			}
		}
	}
	// One two-rank link group per (adjacent-stage pair, direction,
	// inner rank), as pp.Build wires them (no wrap link without
	// interleaving).
	fwdLinks := make([][]*simGroup, S)
	bwdLinks := make([][]*simGroup, S)
	for s := 0; s+1 < S; s++ {
		fwdLinks[s] = make([]*simGroup, innerN)
		bwdLinks[s] = make([]*simGroup, innerN)
		for r := 0; r < innerN; r++ {
			up, down := s*innerN+r, (s+1)*innerN+r
			fwdLinks[s][r] = newSimGroup([]int{up, down}, gpn, spec)
			bwdLinks[s][r] = newSimGroup([]int{down, up}, gpn, spec)
		}
	}

	rate := spec.PeakFLOPS * spec.Efficiency
	fwdFLOPs := core.BlockFLOPs(w.Tokens, w.Dim, layout.TP)
	// cluster.Device.Compute is charged mult·FLOPs per backward block:
	// two forward-equivalents of gradient math, plus the recompute
	// forward under activation checkpointing.
	bwdMult := int64(2)
	if opts.ActivationCheckpoint {
		bwdMult = 3
	}
	devs := make([]*simDev, R)
	rcs := make([]*rankCtx, R)
	maxStage := 0
	for r := 0; r < R; r++ {
		c4 := layout.CoordOf(r)
		r3 := inner.RankOf(core.Coord{T: c4.T, F: c4.F, D: c4.D})
		rng := stages[c4.P]
		L := rng[1] - rng[0]
		if L > maxStage {
			maxStage = L
		}
		numel := blockShardNumel(w.Dim, w.Heads, layout.TP, c4.T, w.QKNorm)
		flat := flatLenFor(numel, layout.FSDP)
		rc := &rankCtx{
			tpG:           tpGroups[[3]int{c4.P, c4.D, c4.F}],
			fsdpG:         fsdpGroups[[3]int{c4.P, c4.D, c4.T}],
			ddpG:          ddpGroups[[3]int{c4.P, c4.F, c4.T}],
			builder:       &progBuilder{seq: make(map[*simGroup]int)},
			bufLive:       make([]bool, L),
			gatherSeq:     make([]int, L),
			rsSeq:         make([]int, L),
			chunkLen:      flat / layout.FSDP,
			flatLen:       flat,
			gatherBytes:   int64(flat) * paramBytesFor(opts.MixedPrecision),
			actBytes:      actBytesFor(w.Dim, w.Heads, layout.TP),
			fwdSec:        float64(fwdFLOPs) / rate,
			bwdFresh:      float64(bwdMult*fwdFLOPs) / rate,
			bwdRecomputed: float64(2*fwdFLOPs) / rate,
		}
		if c4.P > 0 {
			rc.fwdIn = fwdLinks[c4.P-1][r3]
			rc.bwdOut = bwdLinks[c4.P-1][r3]
		}
		if c4.P+1 < S {
			rc.fwdOut = fwdLinks[c4.P][r3]
			rc.bwdIn = bwdLinks[c4.P][r3]
		}
		rcs[r] = rc
		devs[r] = &simDev{capacity: spec.MemPerGPU}
		// NewEngine's persistent allocation: fp32 chunk weights+grads
		// for the stage's blocks only.
		devs[r].mem = int64(L) * int64(rc.chunkLen) * 8
		devs[r].peak = devs[r].mem
	}

	actFloats := w.Tokens * w.Dim
	maxClock := func() float64 {
		m := 0.0
		for _, d := range devs {
			if d.clock > m {
				m = d.clock
			}
		}
		return m
	}
	runStep := func() error {
		progs := make([][]instr, R)
		for r, rc := range rcs {
			buildStep4(rc, w, opts, scheds[layout.CoordOf(r).P], actFloats)
			progs[r] = rc.builder.take()
		}
		return runPrograms(progs, devs)
	}

	const measured = 2
	if err := runStep(); err != nil { // warm-up
		return infeasible(err.Error())
	}
	warm := maxClock()
	var warmDevs []simDev
	for _, d := range devs {
		warmDevs = append(warmDevs, *d)
	}
	for i := 0; i < measured; i++ {
		if err := runStep(); err != nil {
			return infeasible(err.Error())
		}
	}
	stepTime := (maxClock() - warm) / measured

	crit := 0
	for r, d := range devs {
		if d.clock > devs[crit].clock {
			crit = r
		}
	}
	cd, wd := devs[crit], warmDevs[crit]
	pred := Prediction{
		StepTime:    stepTime,
		ComputeTime: (cd.compute - wd.compute) / measured,
		GatherWait:  (cd.waits[phGather] - wd.waits[phGather]) / measured,
		TPWait:      (cd.waits[phTP] - wd.waits[phTP]) / measured,
		RSWait:      (cd.waits[phRS] - wd.waits[phRS]) / measured,
		DDPWait:     (cd.waits[phDDP] - wd.waits[phDDP]) / measured,
		PPWait:      (cd.waits[phPP] - wd.waits[phPP]) / measured,
	}
	for _, d := range devs {
		if d.peak > pred.DeviceBytes {
			pred.DeviceBytes = d.peak
		}
		if d.oom {
			pred.OOM = true
		}
	}
	// Analytic breakdown for the heaviest stage (the largest block
	// count; per-block chunk sizes are stage-independent).
	w4 := w
	w4.Layers = maxStage
	pred.Memory = analyticMemory(w4, inner, opts)
	if pred.OOM {
		pred.Note = "predicted device memory exceeds capacity"
	}
	return pred
}
