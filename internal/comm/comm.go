// Package comm implements the collective-communication layer of the
// simulated machine: the operations RCCL provides on Frontier that
// the trainer uses (all-gather, reduce-scatter, all-reduce and
// point-to-point send/recv), executed functionally by goroutine ranks
// with real data movement, plus an α–β ring cost model that charges
// each collective to the participating devices' simulated clocks
// according to the link type the group spans (Infinity Fabric within
// a node, Slingshot across nodes) — the distinction that drives
// ORBIT's hierarchical mapping of tensor-parallel groups to nodes
// (paper Sec. III-B, Fig. 4).
//
// # Destination-passing collectives, synchronous and asynchronous
//
// There is one protocol: the caller supplies the output buffer, so a
// collective is allocation-free in steady state, and the NCCL in-place
// forms are accepted: a reduction's dst may be the rank's own input, a
// reduce-scatter's dst the rank's own chunk of its input, and an
// all-gather's shard the rank's own slot of its dst
// (dst[rank·n : (rank+1)·n]). The data movement skips whatever already
// sits where it belongs, so an in-place collective on a one-rank group
// moves nothing. No buffer may overlap another in any other way. A
// reduce-scatter either stores its chunk in dst or, posted as
// IReduceScatterMeanAcc, adds it there, so a sharded gradient sum takes
// each reduction with no landing slot and no second pass. Every
// collective has two entry points onto it:
//
//   - Asynchronous (IAllGather, IAllReduceSum, …): posts the
//     collective and returns a Handle immediately so the rank can keep
//     computing while the transfer is in flight. Handle.Wait blocks
//     until the collective completed and settles the rank's simulated
//     clock.
//   - Synchronous (AllGatherInto, AllReduceSumInto, …): the same post
//     followed by Wait.
//
// # Async handle protocol and buffer ownership
//
// Posting transfers ownership of both the input and the destination
// buffer to the communicator: the caller must not read or write either
// until Wait returns. Wait must be called exactly once per rank per
// handle — the pending-operation record is recycled when the last rank
// of the group has waited, so a second Wait (or a never-waited handle)
// breaks the zero-allocation recycling discipline.
//
// Ranks of a group must post collectives in the same order (SPMD, like
// an MPI communicator); matching is by per-rank posting sequence
// number, so several collectives may be in flight at once and Waits
// may be issued in any order. Posting mismatched operation kinds at
// the same sequence position is an ordering violation: the post that
// finds it panics and leaves the group poisoned, so the peers already
// waiting unwind with Poisoned (poison.go) instead of hanging.
//
// # Overlap cost model
//
// A collective starts once every rank has posted it and the group's
// single communication stream is free (in-flight collectives on one
// group serialize, as on one RCCL stream), and completes one modeled
// cost later — Link.Cost and Rendezvous (cost.go), the rules the
// planner's replay calls too. Wait advances the waiting rank's clock to
// the completion time, attributing the idle gap to communication — a
// rank whose compute already advanced its clock past the completion
// time pays nothing, which is exactly the overlap the paper's
// prefetching and bucketing optimizations exploit (Sec. III-B).
package comm

import (
	"fmt"
	"sync"

	"orbit/internal/cluster"
	"orbit/internal/tensor"
)

// pending is one in-flight collective: per-rank input and destination
// buffers and its Rendezvous. The op kind, scale, add bit and cost must
// agree across ranks, so SPMD ordering violations fail loudly instead of
// mixing data. Records are recycled through the group's free list once
// every rank has waited, so steady-state collectives allocate nothing.
type pending struct {
	Rendezvous
	seq    int
	op     Kind
	scale  float64 // applied to reductions (1 = sum, 1/p = mean)
	acc    bool    // a reduce-scatter adds its result into dst
	waited int
	done   bool
	ins    [][]float32
	dsts   [][]float32
}

// Handle identifies a posted collective for one rank. Wait must be
// called exactly once; see the package documentation for the
// ownership rules.
type Handle struct {
	g    *Group
	p    *pending
	rank int
}

// Wait blocks until the collective completes, then advances the
// rank's simulated clock to the completion time (attributing the gap
// to communication — zero if local compute already passed it). On a
// poisoned group Wait panics with Poisoned (see poison.go); the
// blocked span is bracketed on the rank's device so a supervisor can
// tell a waiting victim from the straggler it waits on.
func (h Handle) Wait() {
	g := h.g
	d := g.devices[h.rank]
	g.mu.Lock()
	p := h.p
	for !p.done {
		if g.poisoned {
			g.mu.Unlock()
			panic(Poisoned{})
		}
		d.BeginCommWait()
		g.cond.Wait()
		d.EndCommWait()
	}
	completion := p.Completion
	p.waited++
	if p.waited == len(g.devices) {
		g.recycle(p)
	}
	g.mu.Unlock()
	d.AdvanceTo(completion)
}

// Group is a communicator over a fixed set of simulated devices. All
// member goroutines must post each collective the same number of
// times in the same order (SPMD), exactly like an MPI communicator.
type Group struct {
	devices []*cluster.Device
	link    Link // the link class the group spans

	mu       sync.Mutex
	cond     *sync.Cond
	postSeq  []int // per-rank next posting sequence number
	inflight []*pending
	free     []*pending
	// streamFree is when the group's communication stream finishes its
	// latest collective; in-flight collectives serialize behind it.
	streamFree float64
	scratch    []float64 // float64 accumulation for reductions
	// poisoned permanently aborts the group: posts and waits panic with
	// Poisoned so a dead rank's peers unwind instead of blocking forever
	// (poison.go).
	poisoned bool
}

// NewGroup builds a communicator. The cost model uses intra-node link
// parameters when all members share a node, inter-node otherwise.
func NewGroup(devices []*cluster.Device) *Group {
	if len(devices) == 0 {
		panic("comm: empty group")
	}
	g := &Group{
		devices: devices,
		link:    LinkFor(devices[0].Spec, cluster.SameNode(devices)),
		postSeq: make([]int, len(devices)),
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Size returns the number of ranks.
func (g *Group) Size() int { return len(g.devices) }

// Device returns the device behind a rank.
func (g *Group) Device(rank int) *cluster.Device { return g.devices[rank] }

// cost prices one of the group's collectives over n elements per rank.
func (g *Group) cost(kind Kind, n int) float64 {
	return g.link.Cost(kind, len(g.devices), n)
}

// pendingFor locates (or creates) the in-flight record for a posting
// sequence number. Caller holds g.mu.
func (g *Group) pendingFor(seq int, op Kind, scale float64, acc bool, cost float64) *pending {
	for _, p := range g.inflight {
		if p.seq == seq {
			if p.op != op || p.scale != scale || p.acc != acc || p.Cost != cost {
				// Op kind, reduction scale (sum vs mean), store vs add,
				// and modeled cost (a function of buffer length) must
				// agree across ranks; any divergence is an SPMD
				// ordering violation.
				panic(fmt.Sprintf("comm: collective ordering violation at seq %d: %v(scale %v, add %v, cost %v) posted against %v(scale %v, add %v, cost %v)",
					seq, op, scale, acc, cost, p.op, p.scale, p.acc, p.Cost))
			}
			return p
		}
	}
	var p *pending
	if n := len(g.free); n > 0 {
		p = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
	} else {
		p = &pending{
			ins:  make([][]float32, len(g.devices)),
			dsts: make([][]float32, len(g.devices)),
		}
	}
	p.seq, p.op, p.scale, p.acc, p.Rendezvous = seq, op, scale, acc, Rendezvous{Cost: cost}
	p.waited, p.done = 0, false
	g.inflight = append(g.inflight, p)
	return p
}

// recycle returns a fully-waited pending record to the free list.
// Caller holds g.mu.
func (g *Group) recycle(p *pending) {
	for i := range p.ins {
		p.ins[i] = nil
		p.dsts[i] = nil
	}
	for i, q := range g.inflight {
		if q == p {
			last := len(g.inflight) - 1
			g.inflight[i] = g.inflight[last]
			g.inflight[last] = nil
			g.inflight = g.inflight[:last]
			break
		}
	}
	g.free = append(g.free, p)
}

// post deposits one rank's buffers for its next collective; the last
// rank to arrive executes the data movement and fixes the completion
// time. Returns a handle the rank must Wait on exactly once.
func (g *Group) post(op Kind, rank int, in, dst []float32, scale float64, acc bool, cost float64) Handle {
	clk := g.devices[rank].Clock()
	g.mu.Lock()
	if g.poisoned {
		g.mu.Unlock()
		panic(Poisoned{})
	}
	// pendingFor and complete panic on an SPMD violation. The panic must
	// not take the lock with it: peers blocked in Wait would never wake
	// and a later Poison would deadlock, turning a loud failure into a
	// hang. Poison the group on the way out instead — its state is
	// inconsistent — so the peers unwind too.
	posted := false
	defer func() {
		if !posted {
			g.poisoned = true
			g.cond.Broadcast()
		}
		g.mu.Unlock()
	}()
	seq := g.postSeq[rank]
	g.postSeq[rank]++
	p := g.pendingFor(seq, op, scale, acc, cost)
	p.ins[rank] = in
	p.dsts[rank] = dst
	if p.Post(clk, 1, len(g.devices), &g.streamFree) {
		g.complete(p)
	}
	posted = true
	return Handle{g: g, p: p, rank: rank}
}

// complete runs the collective's data movement into the destination
// buffers once the last rank posted. Caller holds g.mu.
func (g *Group) complete(p *pending) {
	size := len(g.devices)
	switch p.op {
	case AllGather:
		n := len(p.ins[0])
		for r, b := range p.ins {
			if len(b) != n {
				panic(fmt.Sprintf("comm: AllGather shard size mismatch at rank %d: %d vs %d", r, len(b), n))
			}
		}
		// A rank gathering in place already holds its own shard, and a
		// rank that posted no destination receives nothing.
		for _, dst := range p.dsts {
			if dst == nil {
				continue
			}
			for r, b := range p.ins {
				copyUnlessSame(dst[r*n:(r+1)*n], b)
			}
		}
	case AllReduce:
		// The reduction lands in the first destination posted and is
		// copied to the later ones; a nil one receives nothing, and
		// with no destination posted nothing is computed.
		out := 0
		for out < size && p.dsts[out] == nil {
			out++
		}
		if out == size {
			break
		}
		first := p.dsts[out]
		switch size {
		case 1:
			// One rank: the sum is the input and the mean divides by
			// one. float32(float64(v)·1) is v, so a copy gives the
			// general path's bits (but keeps the sign of a −0, which
			// the scratch's 0+v drops), and an in-place call moves
			// nothing.
			copyUnlessSame(first, p.ins[0])
		case 2:
			// Each dst may be its rank's own input: the first takes the
			// reduction before the second is overwritten with it.
			sameLen(p.ins)
			reduceTwo(first, p.ins[0], p.ins[1], p.scale, false)
		default:
			for i, v := range g.reduce(p.ins) {
				first[i] = float32(v * p.scale)
			}
		}
		for _, dst := range p.dsts[out+1:] {
			copy(dst, first)
		}
	case ReduceScatter:
		// Each size stores its rank's chunk of the reduction in dst, or
		// with acc adds it there: the stored value, then one float32 add.
		if size == 1 {
			// One rank owns the one chunk; see AllReduce.
			if p.acc {
				tensor.AddSlice(p.dsts[0], p.ins[0])
			} else {
				copyUnlessSame(p.dsts[0], p.ins[0])
			}
			break
		}
		if size == 2 {
			chunk := sameLen(p.ins) / 2
			for r, dst := range p.dsts {
				reduceTwo(dst, p.ins[0][r*chunk:(r+1)*chunk], p.ins[1][r*chunk:(r+1)*chunk], p.scale, p.acc)
			}
			break
		}
		sum := g.reduce(p.ins)
		chunk := len(sum) / size
		for r, dst := range p.dsts {
			for i, v := range sum[r*chunk : (r+1)*chunk] {
				if p.acc {
					dst[i] += float32(v * p.scale)
				} else {
					dst[i] = float32(v * p.scale)
				}
			}
		}
	case P2P:
		// Exactly one rank posted with a source buffer (ISend); every
		// rank that posted a destination (IRecv) receives a copy.
		var src []float32
		senders := 0
		for _, b := range p.ins {
			if b != nil {
				src = b
				senders++
			}
		}
		if senders != 1 {
			panic(fmt.Sprintf("comm: send at seq %d has %d senders, want exactly 1", p.seq, senders))
		}
		for r, dst := range p.dsts {
			if dst == nil {
				continue
			}
			if len(dst) != len(src) {
				panic(fmt.Sprintf("comm: send buffer at rank %d has %d elements, sender has %d", r, len(dst), len(src)))
			}
			copy(dst, src)
		}
	}
	p.done = true
	g.cond.Broadcast()
}

// copyUnlessSame copies src into dst unless the two are the same
// memory already (an in-place collective's own shard): memmove does
// not notice that on its own.
func copyUnlessSame(dst, src []float32) {
	if len(src) > 0 && len(dst) > 0 && &dst[0] == &src[0] {
		return
	}
	copy(dst, src)
}

// reduceTwo is the two-rank reduction, one fused pass with no float64
// scratch: dst = float32((float64(a)+float64(b))·scale), or with acc
// dst += that, dst free to be a or b. float64(a)+float64(b) is exactly
// the scratch accumulation 0+a+b, so the bits are the general path's
// (but for −0 + −0, which keeps its sign as the one-rank copy does).
// The loop is the definition; tensor.Sum2ScaledVec is its vector form,
// one kernel for both modes, and takes the leading whole vectors where
// the CPU has them.
func reduceTwo(dst, a, b []float32, scale float64, acc bool) {
	for i := tensor.Sum2ScaledVec(dst, a, b, scale, acc); i < len(dst); i++ {
		v := float32((float64(a[i]) + float64(b[i])) * scale)
		if acc {
			v = dst[i] + v
		}
		dst[i] = v
	}
}

// sameLen returns the one length every rank's buffer must have.
func sameLen(bufs [][]float32) int {
	n := len(bufs[0])
	for r, b := range bufs {
		if len(b) != n {
			panic(fmt.Sprintf("comm: reduction size mismatch at rank %d: %d vs %d", r, len(b), n))
		}
	}
	return n
}

// reduce sums rank buffers into the shared float64 scratch. Caller
// holds g.mu; the scratch is fully consumed before the lock drops.
func (g *Group) reduce(bufs [][]float32) []float64 {
	n := sameLen(bufs)
	if cap(g.scratch) < n {
		g.scratch = make([]float64, n)
	}
	sum := g.scratch[:n]
	for i := range sum {
		sum[i] = 0
	}
	for _, b := range bufs {
		for i, v := range b {
			sum[i] += float64(v)
		}
	}
	return sum
}

// --- asynchronous collectives ---

// IAllGather posts an all-gather: dst (length len(shard)×Size)
// receives the rank-ordered concatenation of the shards. shard may be
// the rank's own slot of dst (in place). A rank that already holds the
// payload passes a nil dst: it contributes its shard, is charged and
// waits like its peers, and receives nothing.
func (g *Group) IAllGather(rank int, shard, dst []float32) Handle {
	if dst != nil && len(dst) != len(shard)*len(g.devices) {
		panic(fmt.Sprintf("comm: AllGather dst length %d, want %d×%d", len(dst), len(shard), len(g.devices)))
	}
	return g.post(AllGather, rank, shard, dst, 1, false, g.cost(AllGather, len(shard)))
}

// IAllReduceSum posts an elementwise float64-accumulated sum of
// equal-length buffers; dst (same length as buf) may alias buf for an
// in-place reduction. As in IAllGather, a rank that wants only the
// collective's cost passes a nil dst: it is charged and waits like its
// peers and receives nothing, while its buf still counts toward the
// peers' results. When no rank posts a destination, nothing is read or
// computed.
func (g *Group) IAllReduceSum(rank int, buf, dst []float32) Handle {
	if dst != nil && len(dst) != len(buf) {
		panic(fmt.Sprintf("comm: AllReduce dst length %d, want %d", len(dst), len(buf)))
	}
	return g.post(AllReduce, rank, buf, dst, 1, false, g.cost(AllReduce, len(buf)))
}

// IAllReduceMean is IAllReduceSum divided by the rank count.
func (g *Group) IAllReduceMean(rank int, buf, dst []float32) Handle {
	if dst != nil && len(dst) != len(buf) {
		panic(fmt.Sprintf("comm: AllReduce dst length %d, want %d", len(dst), len(buf)))
	}
	return g.post(AllReduce, rank, buf, dst, 1/float64(len(g.devices)), false, g.cost(AllReduce, len(buf)))
}

// IReduceScatterSum posts a sum reduction scattering contiguous
// chunks: rank r's dst (length len(buf)/Size) receives chunk r. dst
// may alias the rank's own chunk of buf
// (buf[rank·chunk : (rank+1)·chunk]) but no other region.
func (g *Group) IReduceScatterSum(rank int, buf, dst []float32) Handle {
	return g.iReduceScatter(rank, buf, dst, 1, false)
}

// IReduceScatterMean is IReduceScatterSum divided by the rank count —
// the gradient-averaging step of FSDP's backward pass (paper Fig. 2b).
func (g *Group) IReduceScatterMean(rank int, buf, dst []float32) Handle {
	return g.iReduceScatter(rank, buf, dst, 1/float64(len(g.devices)), false)
}

// IReduceScatterMeanAcc is IReduceScatterMean adding into dst instead
// of storing: dst += the rank's chunk of the mean, with the bits of the
// store followed by tensor.AddSlice — FSDP reducing a micro-batch's
// gradient straight into the sharded gradient sum. Every rank of the
// collective must post this form; dst must not overlap buf.
func (g *Group) IReduceScatterMeanAcc(rank int, buf, dst []float32) Handle {
	return g.iReduceScatter(rank, buf, dst, 1/float64(len(g.devices)), true)
}

func (g *Group) iReduceScatter(rank int, buf, dst []float32, scale float64, acc bool) Handle {
	p := len(g.devices)
	if len(buf)%p != 0 {
		panic(fmt.Sprintf("comm: ReduceScatter length %d not divisible by %d ranks", len(buf), p))
	}
	if len(dst) != len(buf)/p {
		panic(fmt.Sprintf("comm: ReduceScatter dst length %d, want %d", len(dst), len(buf)/p))
	}
	return g.post(ReduceScatter, rank, buf, dst, scale, acc, g.cost(ReduceScatter, len(buf)))
}

// --- synchronous destination-passing collectives ---

// AllGatherInto is the synchronous form of IAllGather.
func (g *Group) AllGatherInto(rank int, shard, dst []float32) {
	g.IAllGather(rank, shard, dst).Wait()
}

// AllReduceSumInto is the synchronous form of IAllReduceSum.
func (g *Group) AllReduceSumInto(rank int, buf, dst []float32) {
	g.IAllReduceSum(rank, buf, dst).Wait()
}

// ReduceScatterSumInto is the synchronous form of IReduceScatterSum.
func (g *Group) ReduceScatterSumInto(rank int, buf, dst []float32) {
	g.IReduceScatterSum(rank, buf, dst).Wait()
}

// AllReduceScalar sums one float64 across ranks (loss reporting).
func (g *Group) AllReduceScalar(rank int, v float64) float64 {
	buf := []float32{float32(v)}
	g.AllReduceSumInto(rank, buf, buf)
	return float64(buf[0])
}
