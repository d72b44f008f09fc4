// Package nn implements the neural-network layers of the ORBIT /
// ClimaX vision transformer with hand-written forward and backward
// passes: linear projections, layer normalization, multi-head
// self-attention (with the ORBIT QK layer-norm stabilization from
// ViT-22B), the feed-forward MLP, per-channel patch embedding, and the
// cross-attention variable aggregation of the ClimaX architecture.
//
// Layers cache the activations of their most recent Forward call and
// consume them in Backward; a layer therefore processes one sample (or
// one fused batch matrix) at a time, which is how the trainer drives
// it. Gradients accumulate into Param.Grad until explicitly zeroed, so
// micro-batching sums gradients naturally — unless the Param is marked
// StoreGrad, when each Backward overwrites Grad with its own gradient.
//
// # Buffer ownership
//
// Forward and Backward write into buffers owned by the layer and
// reused on its next call (ggml-style destination passing): the
// returned tensor is valid until that layer's next Forward or
// Backward respectively — callers that need a value to survive longer
// must copy it (see pp.Engine.RunStep's cross-stage sends). In
// exchange, a steady-state transformer forward+backward step performs
// zero heap allocations (asserted by this package's AllocsPerRun
// tests). A layer instance is not safe for concurrent use; the
// simulated-cluster engines give each rank its own module instances,
// matching how each real GPU owns its activation memory.
package nn

import (
	"fmt"
	"math"

	"orbit/internal/tensor"
)

// Param is a trainable parameter: a weight tensor and its gradient
// accumulator of identical shape.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
	// StoreGrad makes the owning layer's Backward store this backward's
	// gradient in Grad instead of adding it, so no clear is needed
	// between backwards. Each layer writes each of its parameters once
	// per Backward, so the stored value is the accumulator's after a
	// ZeroGrad, up to the sign of a zero. It is set on all of a layer's
	// parameters together (LayerNorm reads γ's): core.NewEngine sets it
	// on its block copies when a collective reads every micro-batch's
	// gradient.
	StoreGrad bool
}

// NewParam wraps a weight tensor in a Param with a zero gradient.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, Grad: tensor.New(w.Shape()...)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// NumEl returns the parameter count.
func (p *Param) NumEl() int { return p.W.Len() }

// ZeroGrads clears all gradients of a parameter set.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ReleaseGrads drops the gradient accumulators of a parameter set,
// putting its modules in inference mode: weights stay live but the
// mirror gradient memory — as large as the model itself — is released
// to the collector. Backward must not be called on a released module;
// it would nil-dereference, which is the intended loud failure.
func ReleaseGrads(params []*Param) {
	for _, p := range params {
		p.Grad = nil
	}
}

// CountParams sums the element counts of a parameter set.
func CountParams(params []*Param) int64 {
	var n int64
	for _, p := range params {
		n += int64(p.NumEl())
	}
	return n
}

// CollectGrads returns the gradient tensors of a parameter set, in
// order, for use with the gradient scaler and clipping.
func CollectGrads(params []*Param) []*tensor.Tensor {
	gs := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		gs[i] = p.Grad
	}
	return gs
}

// GlobalGradNorm returns the L2 norm over all parameter gradients.
func GlobalGradNorm(params []*Param) float64 {
	var s float64
	for _, p := range params {
		n := p.Grad.Norm()
		s += n * n
	}
	return math.Sqrt(s)
}

// checkRank panics unless t has the expected rank; shape bugs should
// fail loudly at the layer boundary with the layer's name attached.
func checkRank(layer string, t *tensor.Tensor, rank int) {
	if t.Rank() != rank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", layer, rank, t.Shape()))
	}
}
