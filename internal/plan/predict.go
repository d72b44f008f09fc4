package plan

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"orbit/internal/cluster"
	"orbit/internal/comm"
	"orbit/internal/core"
	"orbit/internal/parallel"
	"orbit/internal/pp"
)

// This file is the step-time predictor the package comment describes.
// It calls the rules the simulated machine itself runs on rather than
// restating them: groups are wired along core.Layout.Line, as
// core.BuildGroupsOver wires them; a collective is priced by
// comm.Link.Cost over its group's link class and completes by
// comm.Rendezvous.Post; compute takes cluster.Spec.ComputeSeconds;
// device bytes come from core.ParamBytes, core.ActivationBytes and
// parallel.Padded; the stage pass, TP all-reduces included, is core's
// compiled step list. A program is step-invariant because every gather
// buffer is released and every post waited by the end of a step. The
// identity partition (replay.identity) is the full per-rank replay
// through the same code; tests use it as the reference.

// Roles: which of a rank's communicators an instruction addresses; the
// first three are the inner grid's axes, in core.Axis order.
const (
	roleTP = iota
	roleFSDP
	roleDDP
	roleFwdIn // activation link from the previous stage
	roleFwdOut
	roleBwdIn // gradient link from the next stage
	roleBwdOut
	roleCount
)

// simGroup is one communicator of the replay's topology: its members
// are the size entries of replay.members starting at first, and link
// indexes the link class they span in replay.links.
type simGroup struct {
	size, first int
	link        uint8
}

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
)

// costSlot is one distinct collective price a program posts: the role
// picks the group whose size and link class price it, so the slot is
// evaluated once per rank class, not per instruction.
type costSlot struct {
	role uint8
	kind comm.Kind
	n    int
}

type instr struct {
	op, phase, role, slot uint8
	seq                   int32   // step-relative posting index on the role's group
	sec                   float64 // compute seconds
}

// program is one rank class's compiled optimizer step. While it is
// being compiled it is also the accumulator: posts counts the posts
// per role so far, mem the running device bytes.
type program struct {
	instrs []instr
	slots  []costSlot
	posts  [roleCount]int32
	// mem/peak are the device bytes of the step's Alloc/Free sequence
	// over the persistent chunk weights+grads, as cluster.Device counts
	// them.
	mem, peak int64
}

func (p *program) slot(role uint8, kind comm.Kind, n int) uint8 {
	s := costSlot{role, kind, n}
	for i := range p.slots {
		if p.slots[i] == s {
			return uint8(i)
		}
	}
	p.slots = append(p.slots, s)
	return uint8(len(p.slots) - 1)
}

func (p *program) post(slot uint8) int32 {
	role := p.slots[slot].role
	s := p.posts[role]
	p.posts[role] = s + 1
	p.instrs = append(p.instrs, instr{op: opPost, role: role, slot: slot, seq: s})
	return s
}

func (p *program) wait(role uint8, seq int32, phase uint8) {
	p.instrs = append(p.instrs, instr{op: opWait, role: role, seq: seq, phase: phase})
}

func (p *program) compute(sec float64) {
	p.instrs = append(p.instrs, instr{op: opCompute, sec: sec})
}

func (p *program) alloc(bytes int64) {
	p.mem += bytes
	p.peak = max(p.peak, p.mem)
}

func (p *program) free(bytes int64) { p.mem -= bytes }

// noSlot marks a stage link the topology does not have.
const noSlot = math.MaxUint8

// progCtx is everything one program's generation needs: the cost
// slots of its collectives, the pass state and step buffer core's
// compiler fills, per-block posting indices over the stage slice, and
// the pipeline link slots (noSlot where the stage has no such link).
type progCtx struct {
	*program
	w                            Workload
	layout                       pp.Layout
	opts                         core.Options
	spec                         cluster.Spec
	gather, rs, ar, qk           uint8
	fwdIn, fwdOut, bwdIn, bwdOut uint8
	ddp                          []uint8 // one slot per outer all-reduce; empty without a DDP level
	lens                         []int   // per-block chunk lengths, for DDP bucket planning
	pass                         core.PassState
	steps                        []core.Step // the four compiled passes, see buildStep4
	gatherSeq, rsSeq, ddpSeq     []int32
	tpSeq                        int32   // the TP all-reduce in flight
	sends                        []instr // deferred send waits
	gatherBytes, actBytes        int64
	flops                        int64 // one block forward's FLOPs
}

// lower appends the replay instructions of a pass compiled by core: a
// collective's post and wait, a block's compute charge, device Alloc /
// Free folded into the high-water mark.
func (pc *progCtx) lower(steps []core.Step) {
	for i := range steps {
		s := &steps[i] // not a copy: this loop is the replay's hottest
		switch s.Op {
		case core.StepGather:
			pc.alloc(pc.gatherBytes)
			pc.gatherSeq[s.Block] = pc.post(pc.gather)
		case core.StepAwaitGather:
			pc.wait(roleFSDP, pc.gatherSeq[s.Block], phGather)
		case core.StepRelease:
			pc.free(pc.gatherBytes)
		case core.StepHold:
			pc.alloc(pc.actBytes)
		case core.StepDrop:
			pc.free(pc.actBytes)
		case core.StepCompute:
			if s.Mult > 0 {
				pc.compute(pc.spec.ComputeSeconds(s.Mult * pc.flops))
			}
		case core.StepPostTP:
			slot := pc.ar
			if s.Half == 4 {
				slot = pc.qk // the packed QK-norm grads
			}
			pc.tpSeq = pc.post(slot)
		case core.StepAwaitTP:
			pc.wait(roleTP, pc.tpSeq, phTP)
		case core.StepPostRS:
			pc.rsSeq[s.Block] = pc.post(pc.rs)
		case core.StepAwaitRS:
			pc.wait(roleFSDP, pc.rsSeq[s.Block], phRS)
		case core.StepPostDDP:
			pc.ddpSeq[s.Block] = pc.post(pc.ddp[s.Block])
		case core.StepAwaitDDP:
			pc.wait(roleDDP, pc.ddpSeq[s.Block], phDDP)
		}
	}
}

// recv is a blocking receive on a stage link; send posts and defers
// its wait to the end of the step. Both are no-ops on a missing link.
func (pc *progCtx) recv(slot uint8) {
	if slot != noSlot {
		pc.wait(pc.slots[slot].role, pc.post(slot), phPP)
	}
}

func (pc *progCtx) send(slot uint8) {
	if slot != noSlot {
		role := pc.slots[slot].role
		pc.sends = append(pc.sends, instr{op: opWait, role: role, seq: pc.post(slot), phase: phPP})
	}
}

// passes compiles the four pass kinds over L blocks: forward, plain
// backward, charged recompute, the backward after it. A pass's steps
// depend only on its kind and on whether a recompute just preceded it
// (core's TestStagePassInvariants), and this order reaches each kind.
func (pc *progCtx) passes(L int) (fwd, bwd, rec, bwdRec []core.Step) {
	pc.pass.Reset(L)
	pc.steps = slices.Grow(pc.steps[:0], 4*(14*L+2*len(pc.ddp))) // a backward, the longest pass, is ≤ 14L+2ddp
	qk := pc.qk != noSlot
	fwd = core.AppendForward(pc.steps, pc.opts, &pc.pass, true)
	bwd = core.AppendBackward(fwd[len(fwd):], pc.opts, &pc.pass, len(pc.ddp), qk)
	rec = core.AppendForward(bwd[len(bwd):], pc.opts, &pc.pass, false)
	bwdRec = core.AppendBackward(rec[len(rec):], pc.opts, &pc.pass, len(pc.ddp), qk)
	return fwd, bwd, rec, bwdRec
}

// buildStep4 emits the optimizer step of the program begun on L blocks:
// its schedule slots in pp.Engine.RunStep's order — receive, the stage
// pass(es), send — then the drain of the sends. Per slot that is at
// most a recompute forward (7 per block) and a backward (11 per block,
// two per outer all-reduce), the link post/wait pair and a send wait.
func (pc *progCtx) buildStep4(sched []pp.Op, L int) {
	pc.instrs = slices.Grow(pc.instrs, len(sched)*(18*L+2*len(pc.ddp)+4))
	fwd, bwd, rec, bwdRec := pc.passes(L)
	pc.sends = pc.sends[:0]
	for _, op := range sched {
		switch op.Kind {
		case pp.Fwd:
			pc.recv(pc.fwdIn)
			pc.lower(fwd)
			pc.send(pc.fwdOut)
		case pp.Bwd:
			steps := bwd
			if op.Recompute {
				pc.lower(rec)
				steps = bwdRec
			}
			pc.recv(pc.bwdIn)
			pc.lower(steps)
			pc.send(pc.bwdOut)
		}
	}
	pc.instrs = append(pc.instrs, pc.sends...)
}

// passSums is one lowered pass as preBound sees it: the compute seconds
// it charges and its posts on pc.gather, pc.rs, pc.ar and pc.qk.
type passSums struct {
	compute float64
	posts   [4]float64
}

// sumPasses lowers each pass kind of the program pc was begun on once
// and sums it. For one workload and spec the sums depend only on L and
// the TP extent (each pass gathers every block once at any prefetch
// depth; DDP posts are not summed), so they are memoized per (L, TP).
func (sc *replay) sumPasses(L int) [4]passSums {
	pc, k := &sc.ctx, [2]int{L, sc.ctx.layout.TP}
	s, ok := sc.sums[k]
	if ok {
		return s
	}
	fwd, bwd, rec, bwdRec := pc.passes(L)
	for i, steps := range [4][]core.Step{fwd, bwd, rec, bwdRec} {
		pc.instrs = pc.instrs[:0]
		pc.lower(steps)
		for _, in := range pc.instrs {
			if in.op == opCompute {
				s[i].compute += in.sec
			} else if j := slices.Index([]uint8{pc.gather, pc.rs, pc.ar, pc.qk}, in.slot); in.op == opPost && j >= 0 {
				s[i].posts[j]++ // once, where pc.qk shares pc.ar's slot
			}
		}
	}
	sc.sums[k] = s
	return s
}

// simDev is a class's simulated clock, its compute time and its wait
// time per phase (memory is folded into the program at compile time).
type simDev struct {
	clock   float64
	compute float64
	waits   [phCount]float64
}

// simClass is one symmetry class of ranks: the clock its members
// share, the program they run, and per role the quotient group the
// representative posts to, with how many members of the class sit in
// one such group.
type simClass struct {
	simDev
	prog *program
	pc   int
	// costs is the offset in replay.costs of the program's cost slots
	// as priced on the representative's groups.
	costs int
	group [roleCount]int32
	mult  [roleCount]int
}

// quotGroup is the run state of one class of equivalent groups: the
// single serialized stream and this step's collectives, the posts
// entries of replay.pend from pend on, indexed by step-relative
// sequence number.
type quotGroup struct {
	size        int
	pend, posts int32
	streamFree  float64
}

// replay is the scratch one pricing pass reuses across candidates:
// compiled programs, the concrete rank/group topology, the colouring,
// and the quotient run state. The zero value is ready to use.
type replay struct {
	// identity replays every rank as its own class — the full replay,
	// which the differential test holds the quotient to.
	identity bool

	progs []program
	ctx   progCtx
	cut   cut     // the candidate's stages and schedules
	tcs   int     // TP rank classes with a program of their own: 1 or 2
	probe program // preBound's: one program's slots at a time
	// Shared by a query's candidates, for memoW and memoC.
	memoW Workload
	memoC ClusterShape
	cuts  map[[2]int]cut
	sums  map[[2]int][4]passSums
	links [2]comm.Link // within a node, across
	// Shared by a layout's knob variants: the layout spans and the
	// pre-bound at DDP bucket size preBucket are for (pre < 0 until it is
	// computed), and the one the topology is wired and coloured for, with
	// partition's group class count.
	spanned, topo pp.Layout
	groupClasses  int
	pre           float64
	preBucket     int

	// Concrete topology: members holds rank<<3|role entries group by
	// group; bind[rank*roleCount+role] is the rank's group for a role
	// (-1 where it has none); progOf[rank] indexes progs.
	groups  []simGroup
	members []int32
	bind    []int32
	progOf  []int32

	// Colour refinement: rank colours (and the next round's), group
	// colours, the sorted member-colour signature of every group
	// (parallel to members), and the index permutation being sorted.
	colour, next []int32
	gcolour      []int32
	sig          []int32
	order        []int32

	classes []simClass
	qgroups []quotGroup
	pend    []comm.Rendezvous
	costs   []float64
	warm    []simDev
	mem     Prediction // compile's: the memory fields
	// spans[prog*roleCount+role] has bit 1 (2) set when a rank running
	// prog has its role group within a node (across nodes).
	spans []uint8
}

// cut is the stage ranges and 1F1B schedules of S stages, and per stage
// how many forwards, plain and recomputing backwards it runs.
type cut struct {
	stages [][2]int
	scheds [][]pp.Op
	runs   [][3]float64
}

// cutFor returns the cut of layers into S stages over micros
// micro-batches, memoized per (S, micros).
func (sc *replay) cutFor(layers, S, micros int) (c cut, note string) {
	if c, ok := sc.cuts[[2]int{S, micros}]; ok {
		return c, ""
	}
	var err error
	if c.stages, err = pp.UniformPartition(layers, S); err != nil { // rejects S > Layers
		return c, err.Error()
	}
	if c.scheds, err = pp.ScheduleFor(pp.Schedule1F1B, S, 1, micros); err != nil {
		return c, err.Error()
	}
	c.runs = make([][3]float64, S)
	for i, sched := range c.scheds {
		for _, op := range sched {
			k := int(op.Kind) // pp.Fwd 0, pp.Bwd 1
			if op.Recompute {
				k = 2
			}
			c.runs[i][k]++
		}
	}
	sc.cuts[[2]int{S, micros}] = c
	return c, ""
}

// resize returns s with length n, reusing its backing array when it is
// large enough (growth is amortized). Contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// begin starts p as the step program of a stage of L blocks for TP
// rank class tc (0 owns the output biases): device bytes and cost
// slots. first and last say which stage links exist.
func (pc *progCtx) begin(p *program, L, tc int, first, last bool) {
	w, layout, opts := pc.w, pc.layout, pc.opts
	flat := parallel.Padded(blockShardNumel(w.Dim, w.Heads, layout.TP, tc, w.QKNorm), layout.FSDP)
	chunkLen := flat / layout.FSDP
	// NewEngine's persistent allocation: fp32 chunk weights+grads for
	// the stage's blocks only.
	persistent := int64(L) * int64(chunkLen) * 8
	*p = program{instrs: p.instrs[:0], slots: p.slots[:0], mem: persistent, peak: persistent}
	pc.program = p
	pc.gatherSeq = resize(pc.gatherSeq, L)
	pc.rsSeq = resize(pc.rsSeq, L)
	pc.ddpSeq = resize(pc.ddpSeq, L)
	pc.gatherBytes = int64(flat) * core.ParamBytes(opts.MixedPrecision)

	pc.gather = p.slot(roleFSDP, comm.AllGather, chunkLen)
	pc.rs = p.slot(roleFSDP, comm.ReduceScatter, flat)
	pc.ar = p.slot(roleTP, comm.AllReduce, w.Tokens*w.Dim)
	pc.qk = noSlot
	if w.QKNorm && layout.TP > 1 {
		pc.qk = p.slot(roleTP, comm.AllReduce, 4*(w.Dim/w.Heads))
	}
	actFloats := w.Tokens * w.Dim // one cross-stage message: the micro-batch activation
	pc.fwdIn, pc.fwdOut, pc.bwdIn, pc.bwdOut = noSlot, noSlot, noSlot, noSlot
	if !first {
		pc.fwdIn = p.slot(roleFwdIn, comm.P2P, actFloats)
		pc.bwdOut = p.slot(roleBwdOut, comm.P2P, actFloats)
	}
	if !last {
		pc.fwdOut = p.slot(roleFwdOut, comm.P2P, actFloats)
		pc.bwdIn = p.slot(roleBwdIn, comm.P2P, actFloats)
	}
	pc.ddp = pc.ddp[:0]
	if layout.DDP > 1 {
		if opts.DDPBucketBytes > 0 {
			pc.lens = resize(pc.lens, L)
			for i := range pc.lens {
				pc.lens[i] = chunkLen
			}
			for _, r := range core.BucketRanges(pc.lens, opts.DDPBucketBytes) {
				pc.ddp = append(pc.ddp, p.slot(roleDDP, comm.AllReduce, (r[1]-r[0])*chunkLen))
			}
		} else {
			s := p.slot(roleDDP, comm.AllReduce, chunkLen)
			for b := 0; b < L; b++ {
				pc.ddp = append(pc.ddp, s)
			}
		}
	}
}

// group wires the group of ranks first + i·stride, i < size, the first
// in role head and the rest in role tail. Its link class is that of its
// first and last members, as they ascend.
func (sc *replay) group(gpn, first, stride, size, head, tail int) {
	g, last := int32(len(sc.groups)), first+(size-1)*stride
	sc.groups = append(sc.groups, simGroup{size: size, first: len(sc.members), link: uint8(min(1, last/gpn-first/gpn))})
	for i, role := 0, head; i < size; i, role = i+1, tail {
		r := first + i*stride
		sc.members = append(sc.members, int32(r<<3|role))
		sc.bind[r*roleCount+role] = g
	}
}

// buildTopology maps ranks to programs, one per (stage, TP rank 0 or
// not), and wires each stage's inner TP×FSDP×DDP grid over the stage's
// contiguous device window, one group per core.Layout.Line as
// core.BuildGroupsOver builds them, and one two-rank link group per
// (adjacent-stage pair, direction, inner rank), as pp.Build does.
func (sc *replay) buildTopology(layout pp.Layout, gpn int) {
	R := layout.Ranks()
	sc.topo = layout
	sc.progOf = resize(sc.progOf, R)
	inner, innerN := layout.Inner(), layout.Inner().Ranks()
	for r := range sc.progOf { // stage r/innerN, TP rank r%TP
		sc.progOf[r] = int32(r/innerN*sc.tcs + min(r%layout.TP, sc.tcs-1))
	}
	sc.groups, sc.members = sc.groups[:0], sc.members[:0]
	sc.bind = resize(sc.bind, R*roleCount)
	for i := range sc.bind {
		sc.bind[i] = -1
	}
	for base := 0; base < R; base += innerN {
		for axis := core.AxisTP; axis <= core.AxisDDP; axis++ {
			for r := 0; r < innerN; r++ {
				if first, stride, size := inner.Line(axis, inner.CoordOf(r)); first == r {
					sc.group(gpn, base+first, stride, size, int(axis), int(axis))
				}
			}
		}
	}
	for up := 0; up+innerN < R; up++ {
		sc.group(gpn, up, innerN, 2, roleFwdOut, roleFwdIn)
		sc.group(gpn, up, innerN, 2, roleBwdIn, roleBwdOut)
	}
}

// markSpans sets layout l's span bits on nodes of gpn devices from the
// grid's arithmetic, as wiring its groups would mark them: stage p's
// window starts at p·n, program p·tcs+tc runs its ranks with T in [t0,
// t1), and a group is first + i·stride or a stage link (up, up+n).
func (sc *replay) markSpans(l pp.Layout, gpn int) {
	sc.spanned, sc.pre = l, -1 // drops the pre-bound
	sc.spans = resize(sc.spans, l.PP*sc.tcs*roleCount)
	clear(sc.spans)
	n := l.Inner().Ranks()
	for pi := range l.PP * sc.tcs {
		base, t0, t1 := pi/sc.tcs*n, pi%sc.tcs, max(1, pi%sc.tcs*l.TP)
		s := sc.spans[pi*roleCount:]
		s[roleTP] = spanBits(gpn, base, l.TP, l.FSDP*l.DDP, 0, 1, l.TP-1) // every TP group starts at T = 0
		s[roleFSDP] = spanBits(gpn, base, l.TP*l.FSDP, l.DDP, t0, t1, (l.FSDP-1)*l.TP)
		s[roleDDP] = spanBits(gpn, base, l.TP, l.FSDP, t0, t1, (l.DDP-1)*l.TP*l.FSDP)
		if pi/sc.tcs+1 < l.PP {
			link := spanBits(gpn, base, l.TP, l.FSDP*l.DDP, t0, t1, n)
			s[roleFwdOut], s[roleBwdIn], s[sc.tcs*roleCount+roleFwdIn], s[sc.tcs*roleCount+roleBwdOut] = link, link, link, link
		}
	}
}

// spanBits has bit 1 (2) set when one of the groups whose first ranks
// are base + a·stride + b, a < n and t0 ≤ b < t1, ends reach ranks later
// within its first's node (past it). Offsets in a node repeat once a or b
// has run over gpn values, so neither loop runs longer.
func spanBits(gpn, base, stride, n, t0, t1, reach int) (bits uint8) {
	for a := 0; a < min(n, gpn) && bits != 3; a++ {
		for b := t0; b < min(t1, t0+gpn); b++ {
			bits |= 1 << min(1, ((base+a*stride+b)%gpn+reach)/gpn)
		}
	}
	return bits
}

// cmpGroups orders groups by (size, link class, member signature);
// equal means the two groups are interchangeable under the current
// rank colouring.
func (sc *replay) cmpGroups(a, b int32) int {
	ga, gb := &sc.groups[a], &sc.groups[b]
	if c := cmp.Or(cmp.Compare(ga.size, gb.size), cmp.Compare(ga.link, gb.link)); c != 0 {
		return c
	}
	return slices.Compare(sc.sig[ga.first:ga.first+ga.size], sc.sig[gb.first:gb.first+gb.size])
}

// cmpRanks orders ranks by (colour, colour of each role's group).
func (sc *replay) cmpRanks(a, b int32) int {
	if c := cmp.Compare(sc.colour[a], sc.colour[b]); c != 0 {
		return c
	}
	ba, bb := sc.bind[a*roleCount:(a+1)*roleCount], sc.bind[b*roleCount:(b+1)*roleCount]
	for role := range ba {
		ca, cb := int32(-1), int32(-1)
		if ba[role] >= 0 {
			ca = sc.gcolour[ba[role]]
		}
		if bb[role] >= 0 {
			cb = sc.gcolour[bb[role]]
		}
		if c := cmp.Compare(ca, cb); c != 0 {
			return c
		}
	}
	return 0
}

// sortedIDs sorts sc.order[:n] = 0..n-1 by cmp and writes dense ids
// (equal elements share one) into ids, returning how many there are.
func (sc *replay) sortedIDs(n int, ids []int32, less func(a, b int32) int) int {
	sc.order = resize(sc.order, n)
	for i := range sc.order {
		sc.order[i] = int32(i)
	}
	slices.SortFunc(sc.order, less)
	id := int32(0)
	for i, x := range sc.order {
		if i > 0 && less(sc.order[i-1], x) != 0 {
			id++
		}
		ids[x] = id
	}
	return int(id) + 1
}

// partition colours the ranks so that equally coloured ranks share
// every clock value of the replay, by colour refinement: ranks start
// coloured by program, a group's colour is its size, link class and
// the sorted multiset of its members' (colour, role) pairs, and a
// rank's next colour is its colour plus the colour of each role's
// group — until no class splits. At that fixed point two ranks of one
// colour run the same program against groups whose members, role for
// role, are again equally coloured, and rendezvous time, stream
// serialization and completion are functions of exactly those. On
// return gcolour identifies the classes of equivalent groups; the
// count of them is returned.
func (sc *replay) partition(R int) (groupClasses int) {
	sc.colour = resize(sc.colour, R)
	sc.next = resize(sc.next, R)
	sc.gcolour = resize(sc.gcolour, len(sc.groups))
	sc.sig = resize(sc.sig, len(sc.members))
	colours := len(sc.progs)
	copy(sc.colour, sc.progOf)
	if sc.identity {
		colours = R
		for r := range sc.colour {
			sc.colour[r] = int32(r)
		}
	}
	for {
		for i, m := range sc.members {
			sc.sig[i] = sc.colour[m>>3]<<3 | m&7
		}
		for i := range sc.groups {
			g := &sc.groups[i]
			slices.Sort(sc.sig[g.first : g.first+g.size])
		}
		groupClasses = sc.sortedIDs(len(sc.groups), sc.gcolour, sc.cmpGroups)
		n := sc.sortedIDs(R, sc.next, sc.cmpRanks)
		sc.colour, sc.next = sc.next, sc.colour
		if n == colours {
			return groupClasses
		}
		colours = n
	}
}

// bindClasses makes one simClass per colour, represented by its lowest
// rank (in rank order, so the critical-rank tie-break is that of the
// full replay), prices its program's cost slots on the
// representative's groups, and sizes the quotient groups' pending
// tables.
func (sc *replay) bindClasses(R, groupClasses int) {
	sc.classes, sc.costs = sc.classes[:0], sc.costs[:0]
	sc.qgroups = resize(sc.qgroups, groupClasses)
	clear(sc.qgroups)
	seen := sc.next // colours are dense and < R
	clear(seen)
	for r := 0; r < R; r++ {
		col := sc.colour[r]
		if seen[col] != 0 {
			continue
		}
		seen[col] = 1
		cl := simClass{prog: &sc.progs[sc.progOf[r]], costs: len(sc.costs)}
		for role := 0; role < roleCount; role++ {
			gi := sc.bind[r*roleCount+role]
			cl.group[role] = -1
			if gi < 0 {
				continue
			}
			g := &sc.groups[gi]
			for _, m := range sc.members[g.first : g.first+g.size] {
				if sc.colour[m>>3] == col && int(m&7) == role {
					cl.mult[role]++
				}
			}
			qi := sc.gcolour[gi]
			cl.group[role] = qi
			q := &sc.qgroups[qi]
			q.size, q.posts = g.size, max(q.posts, cl.prog.posts[role])
		}
		for _, s := range cl.prog.slots {
			g := &sc.groups[sc.bind[r*roleCount+int(s.role)]]
			sc.costs = append(sc.costs, sc.links[g.link].Cost(s.kind, g.size, s.n))
		}
		sc.classes = append(sc.classes, cl)
	}
	pend := int32(0)
	for qi := range sc.qgroups {
		sc.qgroups[qi].pend = pend
		pend += sc.qgroups[qi].posts
	}
	sc.pend = resize(sc.pend, int(pend))
}

// runStep replays one optimizer step of every class representative
// against the quotient groups, advancing clocks by comm.Rendezvous. A
// class advances until it blocks on a wait whose collective has not
// fully posted; the round-robin repeats until all programs retire.
func (sc *replay) runStep() error {
	clear(sc.pend)
	for ci := range sc.classes {
		sc.classes[ci].pc = 0
	}
	for progress := true; progress; {
		progress = false
		for ci := range sc.classes {
			c := &sc.classes[ci]
			instrs, costs := c.prog.instrs, sc.costs[c.costs:]
			pc := c.pc
		run:
			for ; pc < len(instrs); pc++ {
				in := &instrs[pc]
				switch in.op {
				case opCompute:
					c.clock += in.sec
					c.compute += in.sec
				case opPost:
					g := &sc.qgroups[c.group[in.role]]
					p := &sc.pend[g.pend+in.seq]
					cost := costs[in.slot]
					if p.Posted == 0 {
						p.Cost = cost
					} else if p.Cost != cost {
						return fmt.Errorf("plan: replay ordering violation: cost %v posted against %v at seq %d",
							cost, p.Cost, in.seq)
					}
					p.Post(c.clock, c.mult[in.role], g.size, &g.streamFree)
				case opWait:
					g := &sc.qgroups[c.group[in.role]]
					p := &sc.pend[g.pend+in.seq]
					if p.Posted != g.size {
						break run // rendezvous incomplete; try other classes
					}
					if p.Completion > c.clock {
						c.waits[in.phase] += p.Completion - c.clock
						c.clock = p.Completion
					}
				}
			}
			if pc != c.pc {
				c.pc = pc
				progress = true
			}
		}
	}
	for ci := range sc.classes {
		if c := &sc.classes[ci]; c.pc != len(c.prog.instrs) {
			return fmt.Errorf("plan: replay deadlock: class %d stuck at instruction %d/%d", ci, c.pc, len(c.prog.instrs))
		}
	}
	return nil
}

// critical is the class with the latest clock, the first among equals.
func (sc *replay) critical() int {
	crit := 0
	for i := range sc.classes {
		if sc.classes[i].clock > sc.classes[crit].clock {
			crit = i
		}
	}
	return crit
}

// infeasible is the prediction of a candidate that cannot run at all;
// it sorts after every plan that fits.
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
	return new(replay).predict(w, c, cand)
}

func (sc *replay) predict(w Workload, c ClusterShape, cand Candidate4) Prediction {
	if note := sc.header(w, c, cand); note != "" {
		return infeasible(note)
	}
	sc.compile()
	return sc.run()
}

// header validates the candidate and cuts its stages, or says why it
// cannot run.
func (sc *replay) header(w Workload, c ClusterShape, cand Candidate4) (note string) {
	if err := w.Validate(); err != nil {
		return err.Error()
	}
	layout := cand.Layout
	if err := layout.Validate(); err != nil {
		return err.Error()
	}
	if w.Heads%layout.TP != 0 {
		return fmt.Sprintf("plan: TP %d does not divide %d heads", layout.TP, w.Heads)
	}
	S := layout.PP
	opts := cand.Options(w.Opts)
	if err := opts.Validate(); err != nil {
		return err.Error()
	}
	if S > 1 && (!opts.LayerWrapping || !opts.ActivationCheckpoint) {
		return "PP>1 requires LayerWrapping and ActivationCheckpoint"
	}
	R := layout.Ranks()
	if R > c.Devices() {
		return fmt.Sprintf("layout needs %d devices, cluster has %d", R, c.Devices())
	}
	// The elastic trainer's contract: the global batch is fixed and
	// divides over the FSDP·DDP data ranks. Predict4 and Simulate4 both
	// take the micro-batch count from here, never from the informational
	// Knobs.MicroBatches, so a hand-built candidate cannot split them.
	dataRanks := layout.FSDP * layout.DDP
	if w.GlobalBatch%dataRanks != 0 {
		return fmt.Sprintf("plan: global batch %d not divisible by %d data ranks (FSDP %d × DDP %d)",
			w.GlobalBatch, dataRanks, layout.FSDP, layout.DDP)
	}
	if sc.memoW != w || sc.memoC != c {
		sc.memoW, sc.memoC, sc.cuts, sc.sums = w, c, map[[2]int]cut{}, map[[2]int][4]passSums{}
		sc.links = [2]comm.Link{comm.LinkFor(c.Spec, true), comm.LinkFor(c.Spec, false)}
		sc.spanned, sc.topo = pp.Layout{}, pp.Layout{} // never valid, so both are redone
	}
	if sc.cut, note = sc.cutFor(w.Layers, S, w.GlobalBatch/dataRanks); note != "" {
		return note
	}
	pc := &sc.ctx
	pc.w, pc.layout, pc.opts, pc.spec = w, layout, opts, c.Spec
	pc.actBytes = core.ActivationBytes(w.Dim, w.Heads/layout.TP)
	pc.flops = core.BlockFLOPs(w.Tokens, w.Dim, layout.TP)
	sc.tcs = min(layout.TP, 2)
	return ""
}

// compile wires and colours the header's topology unless the scratch
// holds it, compiles its programs and fills sc.mem.
func (sc *replay) compile() {
	pc, S, tcs := &sc.ctx, len(sc.cut.stages), sc.tcs
	sc.progs = resize(sc.progs, S*tcs) // partition starts from one colour per program
	if pc.layout != sc.topo {
		sc.buildTopology(pc.layout, sc.memoC.GPUsPerNode)
		sc.groupClasses = sc.partition(pc.layout.Ranks())
	}
	sc.mem = Prediction{}
	for p, rng := range sc.cut.stages {
		L := rng[1] - rng[0]
		for tc := 0; tc < tcs; tc++ {
			pc.begin(&sc.progs[p*tcs+tc], L, tc, p == 0, p == S-1)
			pc.buildStep4(sc.cut.scheds[p], L)
			sc.mem.DeviceBytes = max(sc.mem.DeviceBytes, sc.progs[p*tcs+tc].peak)
		}
	}
	// Every program allocates gather staging above its persistent
	// bytes, so the peak exceeds capacity exactly when some Alloc does.
	sc.mem.OOM = sc.mem.DeviceBytes > pc.spec.MemPerGPU
	if sc.mem.OOM {
		sc.mem.Note = "predicted device memory exceeds capacity"
	}
}

// price sets sc.costs to each of program pi's slots at the cheaper link
// class its ranks have for the slot's role, over the role's extent.
func (sc *replay) price(pi int, slots []costSlot) []float64 {
	l := sc.ctx.layout
	extent := [roleCount]int{l.TP, l.FSDP, l.DDP, 2, 2, 2, 2}
	sc.costs = resize(sc.costs, len(slots)) // bindClasses rebuilds it
	for i, s := range slots {
		sc.costs[i] = math.Inf(1)
		for k, link := range sc.links {
			if sc.spans[pi*roleCount+int(s.role)]&(1<<k) != 0 {
				sc.costs[i] = min(sc.costs[i], link.Cost(s.kind, extent[s.role], s.n))
			}
		}
	}
	return sc.costs
}

// preBound is Best4's bound from the header alone, priced by price from
// sumPasses times the schedule's runs. It is the larger of two bounds:
//
//   - the least over programs of a solo run: the serial chain — compute,
//     every TP all-reduce and receive, and the waits core's pass order
//     exposes (a backward's DDP all-reduces, posted together and awaited
//     in order; its last reduce-scatter, block 0's, posted after the last
//     compute and awaited first; under LayerWrapping every pass's first
//     gather, as no block is live when a pass starts), each awaited right
//     after its post — or a role's stream total, all awaited in the step;
//   - the 1F1B chain P = max over s of W_s plus Σ_{s'<s} (F + c_fwd +
//     c_bwd + B): W_s stage s's serial chain without receives, F one
//     forward pass with its TP all-reduces and first gather, B the
//     backward lowered after the receive of the stage's last op, c the
//     links to the next stage; each the least over the stage's TP programs.
//
// P holds because a stage-s rank ends its step when its last backward
// send completes, the moment its stage-(s−1) partner's receive does: a
// stage-0 rank ends every step last, and between two of its step ends its
// clock passes through the fill to stage s, W_s and the drain back. The
// bound is +Inf when a program's persistent bytes alone exceed the device.
// Of the knobs only the DDP bucket size enters it.
func (sc *replay) preBound() float64 {
	pc, p, S := &sc.ctx, &sc.probe, len(sc.cut.stages)
	if pc.layout != sc.spanned { // else a knob variant of the layout just bounded
		sc.markSpans(pc.layout, sc.memoC.GPUsPerNode)
	}
	if sc.pre >= 0 && sc.preBucket == pc.opts.DDPBucketBytes {
		return sc.pre
	}
	// chain is P over the stages so far and fill their Σ; work and hop
	// are the current stage's least W and F + c_fwd + c_bwd + B.
	solo, chain, fill, work, hop := math.Inf(1), 0.0, 0.0, math.Inf(1), math.Inf(1)
	for pi := 0; pi < S*sc.tcs; pi++ {
		st, tc := pi/sc.tcs, pi%sc.tcs
		L := sc.cut.stages[st][1] - sc.cut.stages[st][0]
		if pc.begin(p, L, tc, st == 0, st == S-1); p.mem > pc.spec.MemPerGPU {
			solo = math.Inf(1)
			break
		}
		costs, sums, n := sc.price(pi, p.slots), sc.sumPasses(L), sc.cut.runs[st] // n: see cut.runs
		cost := func(slot uint8) float64 {
			if slot == noSlot {
				return 0
			}
			return costs[slot]
		}
		var stream [roleCount]float64
		add := func(slot uint8, times float64) {
			if slot != noSlot {
				stream[p.slots[slot].role] += times * costs[slot]
			}
		}
		for j, slot := range [4]uint8{pc.gather, pc.rs, pc.ar, pc.qk} {
			add(slot, n[0]*sums[0].posts[j]+n[1]*sums[1].posts[j]+n[2]*(sums[2].posts[j]+sums[3].posts[j]))
		}
		bwds := n[1] + n[2]
		add(pc.fwdIn, n[0])
		add(pc.fwdOut, n[0])
		add(pc.bwdIn, bwds)
		add(pc.bwdOut, bwds)
		drain := cost(pc.rs)
		for _, slot := range pc.ddp {
			add(slot, bwds)
			drain += costs[slot]
		}
		first := 0.0 // the gather no block's compute hides
		if pc.opts.LayerWrapping {
			first = cost(pc.gather)
		}
		var pass [4]float64 // fwd, bwd, rec, bwdRec as the serial chain charges them
		for i, s := range sums {
			pass[i] = s.compute + s.posts[2]*cost(pc.ar) + s.posts[3]*cost(pc.qk) + first + float64(i%2)*drain
		}
		w := n[0]*pass[0] + n[1]*pass[1] + n[2]*(pass[2]+pass[3])
		solo = min(solo, max(w+stream[roleFwdIn]+stream[roleBwdIn], slices.Max(stream[:])))
		b := pass[1]
		if sched := sc.cut.scheds[st]; sched[len(sched)-1].Recompute {
			b = pass[3]
		}
		work, hop = min(work, w), min(hop, pass[0]+cost(pc.fwdOut)+cost(pc.bwdIn)+b)
		if tc == sc.tcs-1 { // the stage's last program
			chain, fill, work, hop = max(chain, fill+work), fill+hop, math.Inf(1), math.Inf(1)
		}
	}
	sc.pre, sc.preBucket = max(solo, chain), pc.opts.DDPBucketBytes
	return sc.pre
}

// run, the second half, binds the rank classes compile coloured and
// replays a warm-up and two measured steps.
func (sc *replay) run() Prediction {
	sc.bindClasses(sc.ctx.layout.Ranks(), sc.groupClasses)

	const measured = 2
	if err := sc.runStep(); err != nil { // warm-up
		return infeasible(err.Error())
	}
	warm := sc.classes[sc.critical()].clock
	sc.warm = sc.warm[:0]
	for i := range sc.classes {
		sc.warm = append(sc.warm, sc.classes[i].simDev)
	}
	for i := 0; i < measured; i++ {
		if err := sc.runStep(); err != nil {
			return infeasible(err.Error())
		}
	}
	crit := sc.critical()
	cd, wd := &sc.classes[crit].simDev, &sc.warm[crit]
	pred := sc.mem
	pred.StepTime = (cd.clock - warm) / measured
	pred.ComputeTime = (cd.compute - wd.compute) / measured
	pred.GatherWait = (cd.waits[phGather] - wd.waits[phGather]) / measured
	pred.TPWait = (cd.waits[phTP] - wd.waits[phTP]) / measured
	pred.RSWait = (cd.waits[phRS] - wd.waits[phRS]) / measured
	pred.DDPWait = (cd.waits[phDDP] - wd.waits[phDDP]) / measured
	pred.PPWait = (cd.waits[phPP] - wd.waits[phPP]) / measured
	return pred
}
