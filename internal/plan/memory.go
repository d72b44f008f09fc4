package plan

import (
	"orbit/internal/core"
	"orbit/internal/parallel"
)

// Prediction is the machine-readable pricing of one candidate: the
// predicted step time with its critical-rank breakdown (compute vs.
// per-phase communication waits — waits count only the gap local
// compute did not already cover, so a fully hidden gather contributes
// zero), the byte-exact simulated-accounting memory peak, and the
// analytic memory breakdown for real-hardware capacity reasoning.
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
	// the functional engine by TestPredictedMemoryExact.
	DeviceBytes int64 `json:"device_bytes"`
	// OOM marks plans whose DeviceBytes exceed device capacity (or
	// that are structurally impossible — see Note).
	OOM  bool   `json:"oom,omitempty"`
	Note string `json:"note,omitempty"`
	// Memory is the analytic per-device breakdown.
	Memory MemBreakdown `json:"memory"`
}

// MemBreakdown itemizes the analytic per-device memory model: what
// one rank of the plan holds on real hardware. Parameters, gradients,
// and optimizer moments cover the rank-owned 1/(TP·FSDP) flat chunks
// (fp32 master weights, fp32 gradients, two AdamW moments);
// GatherStaging covers the transient full-shard replicas (depth+1
// layer buffers under prefetch, the whole stack without layer
// wrapping) at gather precision; Activations covers the per-block
// footprint that activation checkpointing discards.
type MemBreakdown struct {
	ParamBytes      int64 `json:"param_bytes"`
	GradBytes       int64 `json:"grad_bytes"`
	MomentBytes     int64 `json:"moment_bytes"`
	ActivationBytes int64 `json:"activation_bytes"`
	GatherBytes     int64 `json:"gather_staging_bytes"`
	TotalBytes      int64 `json:"total_bytes"`
}

// analyticMemory computes the breakdown for the heaviest rank (the
// T = 0 row, which owns the unsharded output biases).
func analyticMemory(w Workload, layout core.Layout, opts core.Options) MemBreakdown {
	flat := parallel.Padded(blockShardNumel(w.Dim, w.Heads, layout.TP, 0, w.QKNorm), layout.FSDP)
	owned := int64(w.Layers) * int64(flat/layout.FSDP)
	live := int64(w.Layers)
	if opts.LayerWrapping {
		live = int64(opts.PrefetchDepth) + 1
	}
	m := MemBreakdown{
		ParamBytes:  bytesFor(owned, w.ParamDtype),
		GradBytes:   bytesFor(owned, w.GradDtype),
		MomentBytes: owned * 8,
		GatherBytes: live * int64(flat) * core.ParamBytes(opts.MixedPrecision),
	}
	if w.GradDtype == DtypeNone {
		// Forward-only workloads carry no AdamW state either.
		m.MomentBytes = 0
	}
	if !opts.ActivationCheckpoint {
		m.ActivationBytes = int64(w.Layers) * core.ActivationBytes(w.Dim, w.Heads/layout.TP)
	}
	m.TotalBytes = m.ParamBytes + m.GradBytes + m.MomentBytes + m.ActivationBytes + m.GatherBytes
	return m
}

// ServingMemory prices one forward-only inference replica of the
// workload's block stack with its matmul weights stored at dt. The
// six per-block matmul matrices (QKV, WO, FC1, FC2) are priced at the
// exact container cost — for the quantized dtypes that is the true
// scales+data byte count of internal/quant, pinned against real
// Quantized.Bytes() sums by test — while norms and biases stay
// float32, mirroring what ckpt.SaveQuantized stores and what a serving
// replica actually holds. Activations charge one live block's
// workspace: a forward plan reuses its buffers layer to layer.
func ServingMemory(w Workload, dt Dtype) MemBreakdown {
	d := w.Dim
	matmul := 4*matrixBytes(d, d, dt) + // WQ, WK, WV, WO
		matrixBytes(d, 4*d, dt) + // FC1
		matrixBytes(4*d, d, dt) // FC2
	total := int64(blockShardNumel(w.Dim, w.Heads, 1, 0, w.QKNorm))
	residue := (total - 12*int64(d)*int64(d)) * 4 // norms + biases, always f32
	m := MemBreakdown{
		ParamBytes:      int64(w.Layers) * (matmul + residue),
		ActivationBytes: core.ActivationBytes(w.Dim, w.Heads),
	}
	m.TotalBytes = m.ParamBytes + m.ActivationBytes
	return m
}

// ServingReplicasPerDevice is the capacity answer quantized serving
// exists for: how many forward-only replicas of the block stack fit in
// memBudget bytes at the given weight dtype.
func ServingReplicasPerDevice(w Workload, dt Dtype, memBudget int64) int {
	per := ServingMemory(w, dt).TotalBytes
	if per <= 0 || memBudget <= 0 {
		return 0
	}
	return int(memBudget / per)
}
