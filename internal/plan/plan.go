// Package plan is the parallelism auto-planner: given a model
// configuration and a simulated cluster shape, it enumerates every
// valid Hybrid-STOP layout (TP, PP, FSDP, DDP) together with its
// tuning knobs (FSDP prefetch depth, DDP gradient-bucket size, the
// implied micro-batch count), predicts each candidate's per-step time
// and per-device memory, and returns the best plan with a
// machine-readable explanation of its prediction. It closes the
// loop the ORBIT paper closes by hand in Sec. IV: instead of the user
// picking the split between tensor, pipeline, sharded-data, and data
// parallelism per run, the planner picks it from the model.
//
// There is one planner path. The four axes are orthogonal extents of
// one rank grid, so an unpipelined (TP, FSDP, DDP) layout is simply
// the PP=1 row of the same search space, priced by the same replay
// and simulated on the same engines as every pipelined layout.
//
// # How predictions are made
//
// Step time comes from replaying the engines' exact instruction
// stream against the overlap-aware clock model of internal/comm: the
// predictor walks each rank's 1F1B schedule slots as pp.Engine.RunStep
// does and, inside each slot, lowers the stage pass core compiles for
// core.Engine to execute (core.AppendForward / AppendBackward) — gather
// posts (with prefetch depth), the TP activation all-reduces inside
// each block, the asynchronous gradient reduce-scatters that drain
// behind backward compute, the outer DDP bucket all-reduces — plus the
// cross-stage activation/gradient transfers, charging each
// collective the identical α–β ring cost over the identical per-group
// link parameters (Infinity Fabric within a node, Slingshot across),
// serializing in-flight collectives on each group's single
// communication stream, and charging block compute with the same
// core.BlockFLOPs the functional engine charges to the simulated
// device clocks. Pipeline bubbles are not a formula: a stage idling
// in warm-up accrues wait time on the first transfer it consumes
// (Prediction.PPWait), and a single-stage schedule has no transfers
// at all. Because predictor and simulator share both the cost
// formulas and the compiled pass, predictions reproduce the
// functional simulation: the calibration tests in this package hold
// the agreement to 1% across layout grids (the observed error is
// 0.00%) and require the planner's top choice to land within a few
// percent of the brute-force grid-sweep optimum.
//
// The replay is compiled once per candidate and run on a quotient of
// the rank grid. A rank's step program depends only on its stage and
// on whether it is TP rank 0 (the owner of the unsharded output
// biases), and it is the same every step, so a candidate compiles at
// most 2·PP programs; their collectives address a role (tp, fsdp, ddp,
// or one of the four stage links), not a group, and each rank binds
// its roles to concrete groups. Colour refinement — ranks start
// coloured by program, and split by the size, link class and member
// colours of each role's group until nothing splits — then partitions
// the ranks into classes whose members share every clock value, and
// one representative per class is replayed against quotient groups
// that count a post with the class's multiplicity. A symmetric layout
// replays one clock per program however many FSDP×DDP replicas it
// has; a layout whose groups straddle node boundaries unevenly
// replays more. The identity partition (every rank its own class) is
// the full replay through the same code, and a differential test
// holds the quotient to it bit for bit on every Prediction field.
//
// Memory comes from one model. Prediction.DeviceBytes replays the
// engine's exact Alloc/Free sequence — persistent fp32 chunk
// weights+gradients of the rank's stage, gather staging (depth+1 layer
// buffers live under prefetch), activation residency under
// checkpointing — and must equal cluster.Device.MemPeak to the byte
// (pinned by test). It decides OOM and bounds Best4's search. Neither
// the engine nor the replay charges optimizer state: AdamW's two fp32
// moments, 8 B per owned parameter, are not counted, so an OOM verdict
// under-counts a training rank by that much.
//
// # Choosing a plan
//
// Best4 first bounds every candidate from its header alone — stages,
// schedules and, from the layout's arithmetic, the link classes each
// program's groups span; no group wired, no program compiled
// (replay.preBound), +Inf when persistent bytes alone overflow the device.
// It then walks them best bound first, stops at the first bound above the
// best step time so far, and wires, compiles and replays only what it
// reaches, unless it would OOM. The bound drops no plan that could win:
// each step, some rank spends at least its program's serial chain —
// compute, TP all-reduces, receives and the waits core's pass order
// exposes, each at the cheapest price its ranks pay — and a stage-0 rank,
// which ends every step last, also waits out the 1F1B fill and drain.
// Prefetch twins, equal in bound, are enumerated and walked next to each
// other, so the scratch keeps the last layout's span bits and pre-bound,
// and the last compiled layout's topology and rank classes.
//
// # Key types
//
// Workload describes the transformer stack and global batch;
// ClusterShape the machine. Enumerate4 produces Candidate4s (layout +
// Knobs), Predict4 prices one and Best4 returns the winner;
// Constraints.FixPP = 1 restricts the search to unpipelined layouts.
// Simulate4 runs the real functional engines over the simulated
// cluster for ground truth — that is what `orbit-scaling -auto`
// compares the planner against. The elastic trainer consults Best4
// with a FixTP constraint (TP shards cannot reshard across a
// checkpoint reload) when it rebuilds after a node loss.
package plan

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/pp"
)

// Workload is the functional training job being planned: the
// transformer stack the Hybrid-STOP engine shards, the fixed global
// batch the elastic trainer micro-batches over the data ranks, and
// the base execution options (layer wrapping, activation
// checkpointing, mixed precision); the per-candidate knobs override
// the options' prefetch and bucketing fields.
type Workload struct {
	Dim, Heads, Layers, Tokens int
	QKNorm                     bool
	// GlobalBatch is the layout-independent samples per step; layouts
	// whose FSDP·DDP does not divide it are rejected (the elastic
	// trainer's divisibility requirement).
	GlobalBatch int
	Opts        core.Options
}

// Validate reports impossible workloads.
func (w Workload) Validate() error {
	if w.Dim <= 0 || w.Heads <= 0 || w.Layers <= 0 || w.Tokens <= 0 {
		return fmt.Errorf("plan: workload needs positive Dim/Heads/Layers/Tokens, got %+v", w)
	}
	if w.Dim%w.Heads != 0 {
		return fmt.Errorf("plan: dim %d not divisible by %d heads", w.Dim, w.Heads)
	}
	if w.GlobalBatch <= 0 {
		return fmt.Errorf("plan: workload needs a positive GlobalBatch")
	}
	return nil
}

// ClusterShape is the simulated machine a plan targets.
type ClusterShape struct {
	Nodes, GPUsPerNode int
	Spec               cluster.Spec
}

// Shape returns a Frontier-spec cluster of the given node count.
func Shape(nodes int) ClusterShape {
	spec := cluster.Frontier()
	return ClusterShape{Nodes: nodes, GPUsPerNode: spec.GPUsPerNode, Spec: spec}
}

// ScaledShape is Shape with per-device compute throughput scaled by
// `computeScale`, links untouched. The functional engines run
// toy-sized transformers (a production layer is ~10⁴× more FLOPs), so
// on a full-speed Frontier spec their compute is nanoseconds against
// microsecond link latencies and every layout degenerates to "use as
// few devices as possible". Scaling the device down restores the
// production compute-to-communication ratio, making layout tradeoffs
// — TP's activation reductions vs. FSDP's gathers vs. DDP's gradient
// rings — visible at functional scale. Planner and simulator share
// whatever spec the shape carries, so calibration is unaffected.
func ScaledShape(nodes int, computeScale float64) ClusterShape {
	c := Shape(nodes)
	if computeScale > 0 {
		c.Spec.PeakFLOPS *= computeScale
	}
	return c
}

// Devices returns the machine's total GPU count.
func (c ClusterShape) Devices() int { return c.Nodes * c.GPUsPerNode }

// Machine materializes the shape as a simulated cluster.
func (c ClusterShape) Machine() *cluster.Machine {
	return cluster.NewMachine(c.Spec, c.Nodes, c.GPUsPerNode)
}

// Knobs are the tuning parameters enumerated alongside each layout.
type Knobs struct {
	// PrefetchDepth is how many layer gathers stay in flight ahead of
	// compute (0 disables prefetch; maps onto core.Options.PrefetchDepth).
	PrefetchDepth int `json:"prefetch_depth"`
	// DDPBucketBytes coalesces the outer gradient all-reduce into
	// buckets of this many bytes (0 = one collective per block chunk).
	DDPBucketBytes int `json:"ddp_bucket_bytes"`
	// MicroBatches is the per-data-rank micro-batch count implied by
	// the layout: GlobalBatch / (FSDP·DDP). Derived, not free — it is
	// reported so a plan is a complete run recipe.
	MicroBatches int `json:"micro_batches"`
}

// Candidate4 is one point of the planning space.
type Candidate4 struct {
	Layout pp.Layout `json:"layout"`
	Knobs  Knobs     `json:"knobs"`
}

// Options applies the candidate's knobs to a base option set,
// producing exactly what the engine should run with.
func (c Candidate4) Options(base core.Options) core.Options {
	o := base
	o.PrefetchDepth = c.Knobs.PrefetchDepth
	o.DDPBucketBytes = c.Knobs.DDPBucketBytes
	return o
}

// Constraints restricts the enumeration.
type Constraints struct {
	// FixTP pins the tensor-parallel extent (> 0). The elastic trainer
	// uses this on rebuild: TP shards partition individual weight
	// matrices, so a checkpoint cannot reshard across a TP change.
	FixTP int
	// FixPP pins the pipeline-stage count (> 0); FixPP = 1 is the
	// unpipelined (TP, FSDP, DDP) search. PP is normally left free
	// even on rebuild — ckpt.Reshard regroups stage shards
	// losslessly, so a checkpoint survives any PP change.
	FixPP int
	// PrefetchDepths / BucketBytes are the knob grids (nil = defaults:
	// depths {0, 1, 2}, buckets {0, 1 MiB}).
	PrefetchDepths []int
	BucketBytes    []int
}

// DefaultPrefetchDepths and DefaultBucketBytes are the knob grids an
// unconstrained enumeration explores.
var (
	DefaultPrefetchDepths = []int{0, 1, 2}
	DefaultBucketBytes    = []int{0, 1 << 20}
)

// Prediction is the machine-readable pricing of one candidate: the
// predicted step time with its critical-rank breakdown (compute vs.
// per-phase communication waits — waits count only the gap local
// compute did not already cover, so a fully hidden gather contributes
// zero) and the byte-exact simulated-accounting memory peak.
type Prediction struct {
	// StepTime is the predicted wall time of one optimizer step
	// (micro-batched over the data ranks) in simulated seconds.
	StepTime float64 `json:"step_time_s"`
	// ComputeTime is the critical rank's per-step block compute.
	ComputeTime float64 `json:"compute_s"`
	// GatherWait / TPWait / RSWait / DDPWait itemize the critical
	// rank's un-hidden communication stalls per step: FSDP parameter
	// gathers, TP activation all-reduces, the gradient reduce-scatter
	// drain, and the outer DDP bucket all-reduces.
	GatherWait float64 `json:"fsdp_gather_wait_s"`
	TPWait     float64 `json:"tp_allreduce_wait_s"`
	RSWait     float64 `json:"reduce_scatter_wait_s"`
	DDPWait    float64 `json:"ddp_allreduce_wait_s"`
	// PPWait is the critical rank's un-hidden pipeline stall: time
	// spent blocked on cross-stage activation/gradient transfers and
	// schedule bubbles (warmup/cooldown idling surfaces as waiting on
	// the first transfer a stage consumes). It falls out of replaying
	// the 1F1B instruction stream, not an analytic bubble formula.
	PPWait float64 `json:"pp_wait_s,omitempty"`
	// DeviceBytes is the predicted cluster.Device.MemPeak — the exact
	// simulated accounting (chunk weights+grads, live gather staging,
	// checkpoint-dependent activations), pinned byte-for-byte against
	// the functional engine by TestPredictedMemoryExact. It charges no
	// optimizer state: AdamW's two fp32 moments, 8 B per owned
	// parameter, are left out, so a training rank needs that much more.
	DeviceBytes int64 `json:"device_bytes"`
	// OOM marks plans whose DeviceBytes exceed device capacity (or
	// that are structurally impossible — see Note).
	OOM  bool   `json:"oom,omitempty"`
	Note string `json:"note,omitempty"`
}

// Plan4 is a priced candidate.
type Plan4 struct {
	Candidate4
	Pred Prediction `json:"prediction"`
}

// Explain renders the plan and the full reasoning behind its
// prediction as indented JSON — the machine-readable justification a
// scheduler (or a human) can audit.
func (p Plan4) Explain() string {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Sprintf("plan: %v", err)
	}
	return string(b)
}

// MarshalJSON writes the +Inf StepTime of a candidate that cannot run
// as null, since JSON has no infinity.
func (p Prediction) MarshalJSON() ([]byte, error) {
	type plain Prediction // the fields without this method
	v := struct {
		StepTime *float64 `json:"step_time_s"` // shadows plain's
		plain
	}{&p.StepTime, plain(p)}
	if math.IsInf(p.StepTime, 0) {
		v.StepTime = nil
	}
	return json.Marshal(v)
}

// String is a compact human-readable summary.
func (p Plan4) String() string {
	return fmt.Sprintf("TP=%d PP=%d FSDP=%d DDP=%d prefetch=%d bucket=%dB micro=%d: step %.3gs (pp wait %.3gs), %.2f GiB/device",
		p.Layout.TP, p.Layout.PP, p.Layout.FSDP, p.Layout.DDP,
		p.Knobs.PrefetchDepth, p.Knobs.DDPBucketBytes, p.Knobs.MicroBatches,
		p.Pred.StepTime, p.Pred.PPWait, float64(p.Pred.DeviceBytes)/(1<<30))
}

// Enumerate4 lists every candidate satisfying the structural rules:
// TP divides the head count (the paper's architectural limit on
// tensor parallelism), PP ≤ Layers (a stage must own at least one
// block), the grid fits the device budget, and FSDP·DDP divides the
// global batch. PP>1 candidates appear only when the base options
// carry LayerWrapping and ActivationCheckpoint — the production
// configuration pipeline schedules require.
func Enumerate4(w Workload, c ClusterShape, cons Constraints) ([]Candidate4, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	switch {
	case cons.FixTP < 0:
		return nil, fmt.Errorf("plan: negative FixTP %d", cons.FixTP)
	case cons.FixPP < 0:
		return nil, fmt.Errorf("plan: negative FixPP %d", cons.FixPP)
	}
	devs := c.Devices()
	if devs < 1 {
		return nil, fmt.Errorf("plan: cluster has no devices")
	}
	depths := cons.PrefetchDepths
	if depths == nil {
		depths = DefaultPrefetchDepths
	}
	for _, d := range depths {
		if err := (core.Options{PrefetchDepth: d}).Validate(); err != nil {
			return nil, err
		}
	}
	buckets := cons.BucketBytes
	if buckets == nil {
		buckets = DefaultBucketBytes
	}
	for _, b := range buckets {
		if err := (core.Options{DDPBucketBytes: b}).Validate(); err != nil {
			return nil, err
		}
	}
	pipeOK := w.Opts.LayerWrapping && w.Opts.ActivationCheckpoint
	var out []Candidate4
	for tp := 1; tp <= w.Heads && tp <= devs; tp++ {
		if w.Heads%tp != 0 || (cons.FixTP > 0 && tp != cons.FixTP) {
			continue
		}
		for p := 1; p <= w.Layers && tp*p <= devs; p++ {
			if (cons.FixPP > 0 && p != cons.FixPP) || (p > 1 && !pipeOK) {
				continue
			}
			for fsdp := 1; tp*p*fsdp <= devs; fsdp++ {
				for ddp := 1; tp*p*fsdp*ddp <= devs; ddp++ {
					if w.GlobalBatch%(fsdp*ddp) != 0 {
						continue
					}
					micro := w.GlobalBatch / (fsdp * ddp)
					for _, d := range depths {
						for _, bb := range buckets {
							if bb != 0 && ddp == 1 {
								continue // bucketing is a no-op without a DDP level
							}
							out = append(out, Candidate4{
								Layout: pp.Layout{TP: tp, PP: p, FSDP: fsdp, DDP: ddp},
								Knobs:  Knobs{PrefetchDepth: d, DDPBucketBytes: bb, MicroBatches: micro},
							})
						}
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: no valid layout for %d devices (FixTP=%d, FixPP=%d, global batch %d)",
			devs, cons.FixTP, cons.FixPP, w.GlobalBatch)
	}
	return out, nil
}

// ahead is the planner's order: plans that fit first, then shorter step
// time, lower device memory, fewer ranks, then fewer stages (the simpler
// composition when pipelining buys nothing).
func ahead(a, b Plan4) bool {
	if a.Pred.OOM != b.Pred.OOM {
		return !a.Pred.OOM
	}
	return cmp.Or(cmp.Compare(a.Pred.StepTime, b.Pred.StepTime), cmp.Compare(a.Pred.DeviceBytes, b.Pred.DeviceBytes),
		cmp.Compare(a.Layout.Ranks(), b.Layout.Ranks()), cmp.Compare(a.Layout.PP, b.Layout.PP)) < 0
}

// boundSlack: StepTime is a difference of clocks, so Best4 replays a
// candidate whose bound ties the incumbent's at rounding level.
const boundSlack = 1e-9

// Best4 returns the plan no candidate is ahead of, the first in
// enumeration order among equals (see "Choosing a plan").
func Best4(w Workload, c ClusterShape, cons Constraints) (Plan4, error) {
	cands, err := Enumerate4(w, c, cons)
	if err != nil {
		return Plan4{}, err
	}
	var sc replay // one scratch for the whole search
	order := make([]bounded, 0, len(cands))
	for i, cand := range cands {
		if sc.header(w, c, cand) == "" { // a +Inf bound (persistent bytes alone overflow) sorts last
			order = append(order, bounded{sc.preBound(), i})
		}
	}
	slices.SortFunc(order, func(a, b bounded) int { return cmp.Or(cmp.Compare(a.pre, b.pre), cmp.Compare(a.i, b.i)) })
	return sc.walk(w, c, cands, order)
}

// bounded is candidate i of an enumeration with a lower bound on its
// step time.
type bounded struct {
	pre float64
	i   int
}

// walk visits candidates in order, ascending in pre, until a bound
// exceeds the incumbent's step time. A plan replaces the incumbent if it
// is ahead, or equal and earlier in enumeration, so the order in which
// walk meets equals does not matter.
func (sc *replay) walk(w Workload, c ClusterShape, cands []Candidate4, order []bounded) (Plan4, error) {
	var best Plan4
	at := -1 // best's enumeration index
	for _, b := range order {
		if at >= 0 && b.pre > best.Pred.StepTime*(1+boundSlack) {
			break
		}
		sc.header(w, c, cands[b.i])
		if sc.compile(); sc.mem.OOM {
			continue
		}
		p := Plan4{Candidate4: cands[b.i], Pred: sc.run()}
		if !p.Pred.OOM && (at < 0 || ahead(p, best) || !ahead(best, p) && b.i < at) {
			best, at = p, b.i
		}
	}
	if at < 0 {
		return Plan4{}, fmt.Errorf("plan: every layout exceeds the %d-byte device memory", c.Spec.MemPerGPU)
	}
	return best, nil
}
