package perf

import (
	"math"

	"orbit/internal/cluster"
	"orbit/internal/core"
)

// ringTime models a bandwidth-optimal ring collective over `ranks`
// members moving `bytes` per rank at the given link parameters.
func ringTime(ranks int, bytes, bandwidth, latency float64) float64 {
	if ranks <= 1 {
		return 0
	}
	p := float64(ranks)
	return (p - 1) * (latency + bytes/p/(bandwidth*BandwidthEff))
}

// congestion scales communication latency with machine size: rings
// spanning thousands of nodes contend for the Slingshot fabric and
// suffer stragglers. Normalized to 1 at one node.
func congestion(gpus int, spec cluster.Spec) float64 {
	nodes := float64(gpus) / float64(spec.GPUsPerNode)
	if nodes <= 1 {
		return 1
	}
	return 1 + (CongestionBase-1)*math.Log2(nodes)/math.Log2(6144)
}

// FixedStepOverhead is the per-micro-step fixed cost (kernel launch
// cascades, host synchronization, data loading) that dominates small
// models at extreme scale and spreads the Fig. 7 efficiency band
// across model sizes.
const FixedStepOverhead = 2e-3

// StepBreakdown itemizes one optimizer step's simulated time.
type StepBreakdown struct {
	// Compute is the per-micro-step matrix math time on the critical
	// path.
	Compute float64
	// FSDPComm is per-micro-step parameter gather/scatter time after
	// prefetch overlap.
	FSDPComm float64
	// TPComm is per-micro-step activation all-reduce time.
	TPComm float64
	// DDPComm is the once-per-step gradient all-reduce time.
	DDPComm float64
	// Overhead is the per-micro-step fixed cost (launch/sync/IO),
	// already scaled by fabric congestion.
	Overhead float64
	// MicroSteps is the number of sequential micro-batches per step.
	MicroSteps int
	// SamplesPerStep is the global number of samples consumed.
	SamplesPerStep int
}

// StepTime returns the wall time of one full optimizer step.
func (b StepBreakdown) StepTime() float64 {
	return float64(b.MicroSteps)*(b.Compute+b.FSDPComm+b.TPComm+b.Overhead) + b.DDPComm
}

// TimePerSample returns seconds per observation data point — the
// paper's time-to-solution metric.
func (b StepBreakdown) TimePerSample() float64 {
	return b.StepTime() / float64(b.SamplesPerStep)
}

// SustainedFLOPS returns the aggregate achieved throughput given the
// per-sample executed FLOPs (including recompute).
func SustainedFLOPS(flopsPerSample float64, b StepBreakdown) float64 {
	return flopsPerSample * float64(b.SamplesPerStep) / b.StepTime()
}

// Step models one Hybrid-STOP training step of the given shape under
// the plan on the machine spec with global batch `globalBatch`.
// If globalBatch ≤ 0 the plan's full data parallelism is used with
// its micro-batch (per-rank-batch-fixed scaling).
func Step(s Shape, plan Plan, spec cluster.Spec, globalBatch int) StepBreakdown {
	tp := plan.Layout.TP
	fsdp := plan.Layout.FSDP
	ddp := plan.Layout.DDP
	gpus := plan.GPUs()
	dataRanks := plan.DataRanks()
	mb := plan.MicroBatch
	if mb < 1 {
		mb = 1
	}

	if globalBatch <= 0 {
		globalBatch = dataRanks * mb
	}
	// Distribute the global batch: each data rank processes
	// ceil(B / dataRanks) samples in micro-batches of mb.
	perRank := (globalBatch + dataRanks - 1) / dataRanks
	if perRank < 1 {
		perRank = 1
	}
	if perRank < mb {
		mb = perRank
	}
	microSteps := (perRank + mb - 1) / mb

	cong := congestion(gpus, spec)

	// Compute: each TP rank executes 1/TP of the sample's FLOPs at
	// the sustained bf16 (or half-rate fp32) throughput.
	rate := spec.PeakFLOPS * SustainedEff
	if !plan.Opts.MixedPrecision {
		rate /= 2
	}
	compute := TrainFLOPs(s, plan.Opts) * float64(mb) / float64(tp) / rate

	// FSDP traffic per micro-step: all-gather in forward, all-gather
	// in backward, reduce-scatter of gradients — 3 ring passes over
	// the rank's TP shard (P/TP bytes at gather precision; the
	// reduce-scatter moves fp32 gradients).
	gB := bytesParamGather(plan.Opts)
	shardBytes := float64(s.Params) / float64(tp)
	fsdpBytes := shardBytes * (2*gB + 4)
	perLayerLat := float64(3*s.Layers) * spec.InterNodeLatency * cong
	fsdpComm := ringTime(fsdp, fsdpBytes, spec.InterNodeBandwidth, 0)*cong + perLayerLat*float64(fsdp-1)/math.Max(1, float64(fsdp))
	if plan.Opts.PrefetchDepth > 0 {
		// The asynchronous double-buffered gather pipeline removes
		// per-layer bubbles and overlaps transfers with compute.
		fsdpComm *= 1 - PrefetchHide
	}

	// TP activation all-reduces: 4 per block per micro-step of
	// [mb × T × D] activations. TP groups that fit inside a node use
	// the Infinity Fabric; groups spanning nodes fall onto Slingshot
	// and, being fine-grain and blocking, achieve only a fraction of
	// its ring bandwidth — why the paper maps TP groups to nodes
	// (Fig. 4) and why its Fig. 6 extreme (TP 256) runs 25× slower.
	actBytes := 4.0
	if plan.Opts.MixedPrecision {
		actBytes = 2
	}
	tpBytes := float64(4*s.Layers) * float64(mb) * float64(s.Tokens) * float64(s.EmbedDim) * actBytes
	tpBW := spec.IntraNodeBandwidth
	tpLat := spec.IntraNodeLatency
	if tp > spec.GPUsPerNode {
		tpBW = spec.InterNodeBandwidth / 4
		tpLat = spec.InterNodeLatency * float64(cong)
	}
	tpComm := ringTime(tp, tpBytes, tpBW, float64(4*s.Layers)*tpLat)

	// DDP gradient all-reduce: once per step over the owned chunk.
	ddpBytes := float64(s.Params) / float64(tp*fsdp) * 4
	ddpComm := ringTime(ddp, ddpBytes, spec.InterNodeBandwidth, spec.InterNodeLatency) * cong

	return StepBreakdown{
		Compute:        compute,
		FSDPComm:       fsdpComm,
		TPComm:         tpComm,
		DDPComm:        ddpComm,
		Overhead:       FixedStepOverhead * cong,
		MicroSteps:     microSteps,
		SamplesPerStep: globalBatch,
	}
}

// StrongScalingEfficiency returns T_base·N_base / (T_N·N): the
// paper's Fig. 7 metric with the 512-GPU run as the 100 % baseline.
func StrongScalingEfficiency(baseTime float64, baseGPUs int, t float64, gpus int) float64 {
	return baseTime * float64(baseGPUs) / (t * float64(gpus))
}

// DefaultPlanFor picks the production layout for a shape on n GPUs:
// TP = 8 within a node for models that need it (the Fig. 6 optimum),
// smaller TP for models whose shards already fit, FSDP filling one
// "sub-cluster" of 64 data ranks, DDP absorbing the rest.
func DefaultPlanFor(s Shape, n int, spec cluster.Spec, opts core.Options) Plan {
	tp := 1
	// Grow TP (within a node) until the per-shard optimizer states
	// fit comfortably (≤ 1/4 of usable memory at FSDP 64).
	for tp < spec.GPUsPerNode && tp < s.Heads &&
		float64(s.Params)/float64(tp*64)*14 > float64(spec.MemPerGPU)*UsableMemFrac/4 {
		tp *= 2
	}
	fsdp := 64
	for tp*fsdp > n {
		fsdp /= 2
	}
	if fsdp < 1 {
		fsdp = 1
	}
	ddp := n / (tp * fsdp)
	if ddp < 1 {
		ddp = 1
	}
	plan := Plan{Layout: core.Layout{TP: tp, FSDP: fsdp, DDP: ddp}, Opts: opts, MicroBatch: 1}
	if mb := MaxMicroBatch(s, HybridSTOP, plan, spec); mb > 1 {
		plan.MicroBatch = mb
		if plan.MicroBatch > 8 {
			plan.MicroBatch = 8
		}
	}
	return plan
}
