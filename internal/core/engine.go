package core

import (
	"fmt"
	"slices"

	"orbit/internal/cluster"
	"orbit/internal/comm"
	"orbit/internal/nn"
	"orbit/internal/parallel"
	"orbit/internal/tensor"
)

// Options enables the training optimizations of paper Sec. III-B /
// Table I. LayerWrapping and ActivationCheckpoint change the
// functional engine's memory behaviour; PrefetchDepth and
// MixedPrecision primarily affect the analytical performance model
// (the functional engine stays numerically fp32 so equivalence tests
// remain exact, and prefetching changes when communication happens,
// not what it computes).
type Options struct {
	// LayerWrapping gathers FSDP shards one transformer layer at a
	// time instead of the whole model (Sec. III-B "Layer Wrapping").
	LayerWrapping bool
	// ActivationCheckpoint discards per-block activations in forward
	// and recomputes them during backward (Sec. III-B).
	ActivationCheckpoint bool
	// MixedPrecision stores gathered parameters and exchanged
	// activations in bf16 (Sec. III-B "Mixed-Precision"); halves
	// communication and gather-buffer bytes.
	MixedPrecision bool
	// PrefetchDepth is how many upcoming layer gathers are kept in
	// flight ahead of the current layer's compute (Sec. III-B
	// "Prefetching"; 0 = off, 1 = the classic overlap of the next
	// layer's gather). Deeper prefetch trades device memory — depth+1
	// gathered layers live at once — for earlier posting, which matters
	// in backward where re-gathers contend with gradient
	// reduce-scatters on the FSDP group's single communication stream.
	PrefetchDepth int
	// DDPBucketBytes, when positive, coalesces the per-block DDP
	// gradient all-reduces into flat buckets of at most this many
	// bytes (each bucket holds at least one block chunk). Zero keeps
	// one collective per block chunk. Bucketing is bit-identical to
	// the per-chunk reduction — both accumulate elementwise in
	// float64 — and only changes how many latency-bound ring setups
	// the outer DDP level pays per step.
	DDPBucketBytes int
}

// Validate rejects options no engine can run.
func (o Options) Validate() error {
	if o.PrefetchDepth < 0 {
		return fmt.Errorf("core: negative prefetch depth %d", o.PrefetchDepth)
	}
	if o.DDPBucketBytes < 0 {
		return fmt.Errorf("core: negative DDP bucket size %d", o.DDPBucketBytes)
	}
	return nil
}

// DefaultOptions enables everything, as the paper's production
// configuration does (last column of Table I).
func DefaultOptions() Options {
	return Options{LayerWrapping: true, ActivationCheckpoint: true, MixedPrecision: true, PrefetchDepth: 1}
}

// Engine is one rank's Hybrid-STOP instance over a transformer block
// stack. The rank owns the TP shard of every block determined by its T
// coordinate, and of that shard only the 1/FSDP flat chunk: the rest is
// gathered per layer. On the simulated device the gathered shard lives
// from its StepGather to its StepRelease. On the host each block has one
// persistent flat weight vector and one flat gradient vector (the
// FlatParameter of PyTorch FSDP): the block's parameters and the rank's
// weight chunk are all views of the two, so the FSDP collectives run in
// place and nothing is copied between a rank's own buffers.
//
// A step's gradient is the sum of its micro-batches' (ZeroGrad, then
// one Backward per micro-batch). When no collective reads a single
// micro-batch's gradient — FSDP and DDP of one rank, no TP QK-norm sum
// — the flat gradient vector is that sum itself and the rank's chunk
// gradient is all of it. Otherwise (perMicro) the flat vector holds one
// micro-batch's gradient at a time, stored by the backward over the
// last one (nn.Param.StoreGrad, so nothing clears it), and the chunk
// gradient is a buffer of its own: the reduce-scatter adds the mean
// into it, or with a DDP level the outer all-reduce's result is added.
type Engine struct {
	Rank   int
	Coord  Coord
	Layout Layout
	Groups *Groups
	Opts   Options
	Device *cluster.Device

	blocks      []*nn.TransformerBlock
	blockParams [][]*nn.Param // views of flatW / flatG at running offsets
	chunks      []*nn.Param   // rank-owned FSDP chunk per block: [F·n, (F+1)·n) of both
	flatW       [][]float32   // per block: the TP shard's weights, zero-padded to FSDP·n
	flatG       [][]float32   // per block: its gradients, same layout
	gatherBytes []int64
	logicalLen  []int // unpadded flat length per block (checkpoint manifests)
	actBytes    []int64
	// sets holds the activation sets (UseActivationSet); blocks is the
	// one Forward, ChargeForward and Backward run on.
	sets     [][]*nn.TransformerBlock
	qk       bool // the backward sums the QK-norm gradients (QKNorm, TP > 1)
	perMicro bool // a collective reads each micro-batch's gradient (see Engine)
	// normSpans[b] holds the [lo, hi) ranges of chunk b that
	// GradSumSquares counts: all of it, but off TP rank 0 not the
	// parameters every TP rank holds whole (parallel.Replicated).
	normSpans [][][2]int

	// What the last compiled pass left live, and the buffer run executes.
	pass  PassState
	steps []Step
	// The in-flight handles of the asynchronous collectives, so
	// parameter gathers prefetch ahead of compute and gradient
	// reductions drain behind it (paper Sec. III-B "Prefetching").
	gatherH []comm.Handle
	tpH     comm.Handle
	rsH     []comm.Handle
	ddpH    []comm.Handle
	// ddpN counts the outer DDP all-reduces per backward (0 without a
	// DDP level). When Opts.DDPBucketBytes coalesces them, ddpBuckets
	// holds [start, end) chunk ranges and ddpBuf[i] bucket i's packed
	// gradients (every bucket is in flight at once).
	ddpN       int
	ddpBuckets [][2]int
	ddpBuf     [][]float32
	// chunkSeen[b] is chunks[b].W.Version()+1 as of the last completed
	// gather of block b (0 = never): when the rank's chunk hasn't
	// changed, a gather's payload is bit-identical to what flatW[b]
	// already holds — SPMD ranks step their optimizers together, so one
	// rank's chunk version tracks the whole group's — and the block's
	// parameter versions stay put. The collective itself still runs and
	// is charged.
	chunkSeen []uint64
}

// ParamBytes is the per-element staging cost of a parameter gather:
// bf16 gathers move and hold half the bytes of fp32.
func ParamBytes(mixedPrecision bool) int64 {
	if mixedPrecision {
		return 2
	}
	return 4
}

// ActivationBytes is the rough per-block activation footprint the
// engine charges when activation checkpointing is off: token
// embeddings at each of ~8 interior stages plus the rank's local
// attention maps. Engines process sequences of a few hundred tokens at
// most in functional mode; 64 sizes the estimate.
func ActivationBytes(dim, localHeads int) int64 {
	const tokens = 64
	return 8*4*int64(dim)*tokens + 4*int64(localHeads)*tokens*tokens
}

// NewEngine shards the reference blocks for this rank. Every rank
// must construct from an identical reference stack (same seed); the
// reference is only read, never retained.
func NewEngine(rank int, layout Layout, groups *Groups, ref []*nn.TransformerBlock, opts Options, dev *cluster.Device) (*Engine, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		Rank:   rank,
		Coord:  layout.CoordOf(rank),
		Layout: layout,
		Groups: groups,
		Opts:   opts,
		Device: dev,
	}
	for i, rb := range ref {
		if rb.Attn.Heads%layout.TP != 0 {
			return nil, fmt.Errorf("core: %d heads not divisible by TP size %d", rb.Attn.Heads, layout.TP)
		}
		b := parallel.NewTPBlock(e.Coord.T, layout.TP, rb)
		e.qk = rb.Attn.QKNorm && layout.TP > 1
		e.blocks = append(e.blocks, b)
		params := b.Params()
		e.blockParams = append(e.blockParams, params)

		flat := parallel.FlattenParams(params, groups.FSDP.Size())
		grads := parallel.BindFlat(flat, params)
		chunkLen := len(flat) / groups.FSDP.Size()
		lo, hi := e.Coord.F*chunkLen, (e.Coord.F+1)*chunkLen
		var rep []*nn.Param
		if e.Coord.T > 0 {
			rep = parallel.Replicated(b)
		}
		e.normSpans = append(e.normSpans, chunkSpans(params, rep, lo, hi))
		e.chunks = append(e.chunks, &nn.Param{
			Name: fmt.Sprintf("hstop.block%d.chunk", i),
			W:    tensor.FromSlice(flat[lo:hi], chunkLen),
			Grad: tensor.FromSlice(grads[lo:hi], chunkLen),
		})
		e.flatW = append(e.flatW, flat)
		e.flatG = append(e.flatG, grads)
		e.gatherBytes = append(e.gatherBytes, int64(len(flat))*ParamBytes(opts.MixedPrecision))
		e.logicalLen = append(e.logicalLen, parallel.NumelPadded(params, 1))

		t := int64(0)
		if dev != nil {
			t = ActivationBytes(rb.LN1.Dim, b.Attn.Heads)
		}
		e.actBytes = append(e.actBytes, t)

		if dev != nil {
			// Persistent: owned chunk weights + grads (fp32 master).
			if err := dev.Alloc(int64(chunkLen) * 8); err != nil {
				return nil, err
			}
		}
	}
	e.perMicro = groups.FSDP.Size() > 1 || groups.DDP.Size() > 1 || e.qk
	if e.perMicro {
		for _, c := range e.chunks {
			c.Grad = tensor.New(c.W.Len())
		}
		for _, ps := range e.blockParams {
			for _, p := range ps {
				p.StoreGrad = true
			}
		}
	}
	e.sets = [][]*nn.TransformerBlock{e.blocks}
	e.pass.Reset(len(ref))
	e.gatherH = make([]comm.Handle, len(ref))
	e.rsH = make([]comm.Handle, len(ref))
	e.ddpH = make([]comm.Handle, len(ref))
	e.chunkSeen = make([]uint64, len(ref))
	if groups.DDP.Size() > 1 {
		e.ddpN = len(ref)
	}
	if e.ddpN > 0 && e.Opts.DDPBucketBytes > 0 {
		lens := make([]int, len(e.chunks))
		for i, c := range e.chunks {
			lens[i] = c.W.Len()
		}
		e.ddpBuckets = BucketRanges(lens, e.Opts.DDPBucketBytes)
		for _, r := range e.ddpBuckets {
			n := 0
			for _, l := range lens[r[0]:r[1]] {
				n += l
			}
			e.ddpBuf = append(e.ddpBuf, make([]float32, n))
		}
		e.ddpN = len(e.ddpBuckets)
	}
	return e, nil
}

// BucketRanges greedily coalesces consecutive chunks into buckets of
// at most bucketBytes (4 bytes per element; every bucket holds at
// least one chunk). Exported so the parallelism planner predicts the
// exact bucket count the engine will use.
func BucketRanges(lens []int, bucketBytes int) [][2]int {
	capFloats := bucketBytes / 4
	var out [][2]int
	start, cur := 0, 0
	for i, n := range lens {
		if i > start && cur+n > capFloats {
			out = append(out, [2]int{start, i})
			start, cur = i, 0
		}
		cur += n
	}
	out = append(out, [2]int{start, len(lens)})
	return out
}

// BlockFLOPs counts the floating-point operations one rank executes
// for a forward pass of its TP shard of one transformer block over
// [tokens, dim] activations: the QKV/output projections contribute
// 8·T·D², the 4·D-hidden MLP 16·T·D², and the attention scores and
// values 4·T²·D — all divided across the TP group, which is exactly
// the work division of the paper's Eqn. (2). The engine charges this
// to the simulated device clock so layouts trade compute against
// communication the way the real machine does; the parallelism
// planner (internal/plan) charges the identical quantity, which is
// what keeps its step-time predictions calibrated against the
// functional simulation.
func BlockFLOPs(tokens, dim, tp int) int64 {
	t, d := float64(tokens), float64(dim)
	return int64((24*t*d*d + 4*t*t*d) / float64(tp))
}

// Chunks exposes the rank-owned parameter chunks for the optimizer.
// Chunks()[b].Grad holds the sum of the gradients of every Backward
// since the last ZeroGrad.
func (e *Engine) Chunks() []*nn.Param { return e.chunks }

// ZeroGrad starts a step: it clears the chunk gradients, which each
// Backward then adds its micro-batch's gradient into.
func (e *Engine) ZeroGrad() {
	for _, c := range e.chunks {
		clear(c.Grad.Data())
	}
}

// GradSumSquares returns the sum of squares of the rank's chunk
// gradients, each TP-replicated parameter counted on TP rank 0 only, so
// the sum over one DDP replica's ranks counts every logical parameter
// once.
func (e *Engine) GradSumSquares() float64 {
	var s float64
	for b, spans := range e.normSpans {
		g := e.chunks[b].Grad.Data()
		for _, r := range spans {
			s += tensor.SumSquares(g[r[0]:r[1]])
		}
	}
	return s
}

// chunkSpans returns the ranges of the flat chunk [lo, hi), relative
// to lo, that hold none of skip's elements; params lie in flat order.
func chunkSpans(params, skip []*nn.Param, lo, hi int) [][2]int {
	var out [][2]int
	start, off := lo, 0
	for _, p := range params {
		end := off + p.W.Len()
		if a, z := max(off, lo), min(end, hi); a < z && slices.Contains(skip, p) {
			if start < a {
				out = append(out, [2]int{start - lo, a - lo})
			}
			start = z
		}
		off = end
	}
	if start < hi {
		out = append(out, [2]int{start - lo, hi - lo})
	}
	return out
}

// slot is the rank's FSDP slot of block b's flat gradient, where a
// storing reduce-scatter lands: the chunk gradient itself unless
// perMicro.
func (e *Engine) slot(b int) []float32 {
	n := e.chunks[b].W.Len()
	return e.flatG[b][e.Coord.F*n : (e.Coord.F+1)*n]
}

// LogicalFlatLens returns the unpadded flattened parameter length of
// each block's TP shard — what a sharded checkpoint manifest records
// so chunks reshard exactly across a different FSDP extent.
func (e *Engine) LogicalFlatLens() []int {
	return append([]int(nil), e.logicalLen...)
}

// ExportChunks snapshots the rank-owned parameter chunks (one per
// block) for a sharded checkpoint. Like training itself, no rank ever
// exports more than its 1/(TP·FSDP) slice of the model.
func (e *Engine) ExportChunks() [][]float32 {
	out := make([][]float32, len(e.chunks))
	for b, c := range e.chunks {
		chunk := make([]float32, c.W.Len())
		copy(chunk, c.W.Data())
		out[b] = chunk
	}
	return out
}

// ImportChunks restores chunks written by ExportChunks (possibly
// resharded by the checkpoint layer); the next gather of each block
// delivers the peers' restored chunks and moves the parameter versions.
func (e *Engine) ImportChunks(chunks [][]float32) {
	if len(chunks) != len(e.chunks) {
		panic(fmt.Sprintf("core: ImportChunks got %d chunks for %d blocks", len(chunks), len(e.chunks)))
	}
	for b, chunk := range chunks {
		c := e.chunks[b]
		if len(chunk) != c.W.Len() {
			panic(fmt.Sprintf("core: ImportChunks block %d chunk length %d, want %d", b, len(chunk), c.W.Len()))
		}
		copy(c.W.Data(), chunk)
		c.W.Bump()
		e.chunkSeen[b] = 0
	}
}

// postGather posts the FSDP all-gather of block b's TP-shard
// parameters, in place: the rank's chunk is its own slot of flatW[b],
// so only the peers' chunks move — and not even those when chunkSeen
// says flatW[b] holds this payload already (every re-gather between two
// optimizer steps): the rank then posts no destination. Unlike vanilla
// FSDP this gathers a 1/TP shard, not the full model — the core memory
// advantage of Hybrid-STOP.
func (e *Engine) postGather(b int) {
	dst := e.flatW[b]
	if e.chunkSeen[b] == e.chunks[b].W.Version()+1 {
		dst = nil
	}
	e.gatherH[b] = e.Groups.FSDP.IAllGather(e.Coord.F, e.chunks[b].W.Data(), dst)
}

// waitGather completes block b's in-flight gather. The parameters are
// views of flatW[b], so there is nothing to copy; their versions move
// (Linear re-derives its cached transpose) only when the rank's chunk
// version did — see chunkSeen. A backward re-gather never moves them:
// chunks only change at optimizer steps.
func (e *Engine) waitGather(b int) {
	e.gatherH[b].Wait()
	if seen := e.chunks[b].W.Version() + 1; e.chunkSeen[b] != seen {
		for _, p := range e.blockParams[b] {
			p.W.Bump()
		}
		e.chunkSeen[b] = seen
	}
}

// alloc and free account device bytes; the host vectors persist.
func (e *Engine) alloc(bytes int64) error {
	if e.Device == nil {
		return nil
	}
	return e.Device.Alloc(bytes)
}

func (e *Engine) free(bytes int64) {
	if e.Device != nil {
		e.Device.Free(bytes)
	}
}

// chargeCompute advances the rank's simulated device clock by `mult`
// forward passes of block b's TP shard over [tokens, dim]
// activations. Charging happens at the same program points the real
// kernels would run — after the layer's gather completed, before its
// collectives post — so asynchronously prefetched gathers genuinely
// hide behind compute in the clock model (the overlap the paper's
// Sec. III-B optimizations exploit). The functional math stays fp32
// regardless of MixedPrecision; the charge model mirrors that.
func (e *Engine) chargeCompute(b int, x *tensor.Tensor, mult int64) {
	if e.Device == nil || mult == 0 {
		return
	}
	dim := e.blocks[b].LN1.Dim
	tokens := x.Len() / dim
	e.Device.Compute(mult * BlockFLOPs(tokens, dim, e.Groups.TP.Size()))
}

// Forward runs the rank's local sample through the sharded stack.
// Ranks in the same TP group must pass identical x (they share the
// data batch); ranks differing in F or D pass their own samples.
// The next PrefetchDepth blocks' parameter gathers are
// posted before the current block computes, hiding the transfers
// behind compute.
func (e *Engine) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	e.steps = AppendForward(e.steps[:0], e.Opts, &e.pass, true)
	return e.run(x, true)
}

// ChargeForward is Forward without the arithmetic: the same gathers
// (payload-free, as every re-gather between two optimizer steps is),
// compute charges and TP all-reduces (posted with no destination), so
// the simulated clocks advance exactly as under Forward while the
// active set's caches keep what they hold. It is the recompute of
// activation checkpointing, whose values those caches already are, so
// the next Backward charges two forward-equivalents (the gradient
// math) instead of three.
func (e *Engine) ChargeForward(x *tensor.Tensor) error {
	e.steps = AppendForward(e.steps[:0], e.Opts, &e.pass, false)
	_, err := e.run(x, false)
	return err
}

// Backward propagates dy through the stack in reverse: per block it
// re-gathers the shard (paper Fig. 3b, prefetching the next block's
// gather while the current one computes), charges the checkpointed
// recompute, computes shard gradients, and posts their FSDP
// reduce-scatter asynchronously so the reduction overlaps earlier
// blocks' backward compute; all reductions are drained before the
// outer DDP-group averaging. The micro-batch's gradient is added into
// Chunks()[b].Grad, complete when Backward returns: each parameter
// receives exactly one add per Backward, so the sum after a ZeroGrad
// and k Backwards is bit for bit the sequential sum of the k gradients.
// The recompute is never re-run on the host: the active set's caches
// already hold what it would reproduce.
func (e *Engine) Backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	e.steps = AppendBackward(e.steps[:0], e.Opts, &e.pass, e.ddpN, e.qk)
	return e.run(dy, true)
}

// run executes the compiled pass in e.steps, threading x — the
// activation forward, the gradient backward — through the blocks.
// Without compute no half runs and no join: the TP all-reduces post x
// with no destination, so only the clocks move.
func (e *Engine) run(x *tensor.Tensor, compute bool) (*tensor.Tensor, error) {
	for _, s := range e.steps {
		b := s.Block
		switch s.Op {
		case StepGather:
			if err := e.alloc(e.gatherBytes[b]); err != nil {
				return nil, err
			}
			e.postGather(b)
		case StepAwaitGather:
			e.waitGather(b)
		case StepRelease:
			e.free(e.gatherBytes[b])
		case StepHold:
			if err := e.alloc(e.actBytes[b]); err != nil {
				return nil, err
			}
		case StepDrop:
			e.free(e.actBytes[b])
		case StepCompute:
			e.chargeCompute(b, x, s.Mult)
			if compute {
				e.blocks[b].Half(int(s.Half), x)
			}
		case StepPostTP:
			buf, dst := x.Data(), []float32(nil)
			if compute {
				buf = e.blocks[b].Partial(int(s.Half))
				dst = buf
			}
			e.tpH = e.Groups.TP.IAllReduceSum(e.Coord.T, buf, dst)
		case StepAwaitTP:
			e.tpH.Wait()
			if compute {
				x = e.blocks[b].Join(int(s.Half))
			}
		case StepPostRS:
			// Straight into the chunk's sum on the per-micro path without
			// a DDP level; else in place, into the rank's slot of flatG[b]
			// (the step's sum, or what the DDP all-reduce reads).
			if e.perMicro && e.ddpN == 0 {
				e.rsH[b] = e.Groups.FSDP.IReduceScatterMeanAcc(e.Coord.F, e.flatG[b], e.chunks[b].Grad.Data())
			} else {
				e.rsH[b] = e.Groups.FSDP.IReduceScatterMean(e.Coord.F, e.flatG[b], e.slot(b))
			}
		case StepAwaitRS:
			e.rsH[b].Wait()
		case StepPostDDP: // one gradient reduction per backward (Fig. 4)
			buf, lo, hi := e.ddpSpan(b)
			if e.ddpBuf != nil {
				off := 0
				for c := lo; c < hi; c++ {
					off += copy(buf[off:], e.slot(c))
				}
			}
			e.ddpH[b] = e.Groups.DDP.IAllReduceMean(e.Coord.D, buf, buf)
		case StepAwaitDDP:
			e.ddpH[b].Wait()
			buf, lo, hi := e.ddpSpan(b)
			off := 0
			for c := lo; c < hi; c++ {
				g := e.chunks[c].Grad.Data()
				tensor.AddSlice(g, buf[off:off+len(g)])
				off += len(g)
			}
		}
	}
	return x, nil
}

// ddpSpan returns outer all-reduce i's buffer and the range [lo, hi)
// of chunks it carries: bucket i's (bit-identical to per-chunk
// reductions), or chunk i's slot of flatG[i].
func (e *Engine) ddpSpan(i int) (buf []float32, lo, hi int) {
	if e.ddpBuf == nil {
		return e.slot(i), i, i + 1
	}
	r := e.ddpBuckets[i]
	return e.ddpBuf[i], r[0], r[1]
}

// UseActivationSet points Forward, ChargeForward and Backward at
// activation set k (set 0 until called), creating the sets up to k on
// first use. A set's blocks share every parameter with set 0's — the
// same nn.Params, views of the same flat vectors — so the collectives
// and the optimizer see one copy, and hold their own module caches: a
// pipeline stage keeps each in-flight micro-batch's activations in a
// set of its own until that micro-batch's backward.
func (e *Engine) UseActivationSet(k int) {
	for len(e.sets) <= k {
		set := make([]*nn.TransformerBlock, len(e.blocks))
		for b, blk := range e.sets[0] {
			set[b] = blk.Twin()
		}
		e.sets = append(e.sets, set)
	}
	e.blocks = e.sets[k]
}

// AverageLoss averages a local loss over all ranks. Every sample is
// counted TP times (TP ranks share a sample), uniformly, so the
// all-rank mean equals the per-sample mean.
func (e *Engine) AverageLoss(local float64) float64 {
	return e.Groups.All.AllReduceScalar(e.Rank, local) / float64(e.Groups.All.Size())
}

// PoisonComm aborts every collective this rank's communicators may
// block on: peers of a failed rank wake with a comm.Poisoned panic
// instead of waiting forever on a post that will never come. Each
// unwinding peer poisons its own groups in turn, so the abort
// propagates transitively across the whole TP×FSDP×DDP grid. The
// engine (and the shared groups) are unusable afterwards — the
// elastic rebuild path constructs fresh ones.
func (e *Engine) PoisonComm() {
	e.Groups.TP.Poison()
	e.Groups.FSDP.Poison()
	e.Groups.DDP.Poison()
	e.Groups.All.Poison()
}
