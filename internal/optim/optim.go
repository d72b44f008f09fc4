// Package optim provides the optimizer and learning-rate schedules
// used to train ORBIT models: AdamW (the standard for ViT training),
// cosine-with-warmup LR scheduling, and global gradient-norm clipping.
//
// AdamW operates on an nn.Param list and keeps its state (the
// first/second moments, the step count) per parameter in
// registration order. That state is exported and restorable —
// Moments, StepCount, SetStepCount — which is what lets sharded
// checkpoints capture a mid-run optimizer exactly and resume with a
// bit-identical loss trajectory (internal/ckpt, internal/train).
// Invariant: AdamW steps every parameter it was built with,
// every call; partial steps would desynchronize the moment tensors
// from the weights they track.
package optim

import (
	"math"

	"orbit/internal/nn"
	"orbit/internal/tensor"
)

// AdamW implements decoupled weight-decay Adam (Loshchilov & Hutter),
// the optimizer used by ClimaX/ORBIT fine-tuning and pre-training.
type AdamW struct {
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	params []*nn.Param
	m, v   []*tensor.Tensor
	step   int
}

// adamwUpdate applies the AdamW update to every element of one
// parameter in float32, with Step's coefficients (the bias corrections
// as reciprocals, so an element costs one division and one square
// root). Each element's update reads and writes only its own w/g/m/v
// cells. The loop below is the definition of the update;
// tensor.AdamWVec is its vector form (same operations, same bits) and
// takes the leading whole vectors where the CPU has it.
func adamwUpdate(w, g, m, v []float32, c *tensor.AdamWCoef) {
	for j := tensor.AdamWVec(w, g, m, v, c); j < len(w); j++ {
		gj := g[j]
		mj := c.B1*m[j] + c.C1*gj
		vj := c.B2*v[j] + c.C2*gj*gj
		m[j], v[j] = mj, vj
		wj := w[j]
		w[j] = wj - c.LR*((mj*c.IBC1)/(float32(math.Sqrt(float64(vj*c.IBC2)))+c.Eps)+c.WD*wj)
	}
}

// NewAdamW builds an AdamW optimizer with standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdamW(params []*nn.Param, weightDecay float64) *AdamW {
	a := &AdamW{
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		WeightDecay: weightDecay,
		params:      params,
	}
	for _, p := range params {
		a.m = append(a.m, tensor.New(p.W.Shape()...))
		a.v = append(a.v, tensor.New(p.W.Shape()...))
	}
	return a
}

// Step applies one AdamW update with bias correction, in float32.
func (a *AdamW) Step(lr float64) {
	a.step++
	c := tensor.AdamWCoef{
		B1: float32(a.Beta1), C1: float32(1 - a.Beta1), B2: float32(a.Beta2), C2: float32(1 - a.Beta2),
		IBC1: float32(1 / (1 - math.Pow(a.Beta1, float64(a.step)))),
		IBC2: float32(1 / (1 - math.Pow(a.Beta2, float64(a.step)))),
		Eps:  float32(a.Eps), WD: float32(a.WeightDecay), LR: float32(lr),
	}
	for i, p := range a.params {
		adamwUpdate(p.W.Data(), p.Grad.Data(), a.m[i].Data(), a.v[i].Data(), &c)
		p.W.Bump()
	}
}

// Moments exposes the first and second moment estimates, aligned with
// the optimized parameters, for checkpointing. The returned tensors are the live
// optimizer state: write into their Data() to restore a checkpoint.
func (a *AdamW) Moments() (m, v []*tensor.Tensor) { return a.m, a.v }

// StepCount returns the number of optimizer steps taken, the quantity
// Adam's bias correction depends on.
func (a *AdamW) StepCount() int { return a.step }

// SetStepCount restores the step counter from a checkpoint so bias
// correction continues exactly where the saved run left off.
func (a *AdamW) SetStepCount(n int) { a.step = n }

// ClipGradNorm scales all gradients so the global L2 norm does not
// exceed maxNorm; returns the pre-clip norm.
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	norm := nn.GlobalGradNorm(params)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			p.Grad.ScaleInPlace(scale)
		}
	}
	return norm
}

// Schedule maps a step index to a learning rate.
type Schedule interface {
	LR(step int) float64
}

// CosineSchedule is linear warmup followed by cosine decay to MinLR
// over TotalSteps, the schedule used for ViT pre-training.
type CosineSchedule struct {
	BaseLR      float64
	MinLR       float64
	WarmupSteps int
	TotalSteps  int
}

// LR returns the learning rate at the given step.
func (c CosineSchedule) LR(step int) float64 {
	if step < c.WarmupSteps {
		return c.BaseLR * float64(step+1) / float64(c.WarmupSteps)
	}
	if step >= c.TotalSteps {
		return c.MinLR
	}
	progress := float64(step-c.WarmupSteps) / float64(c.TotalSteps-c.WarmupSteps)
	return c.MinLR + 0.5*(c.BaseLR-c.MinLR)*(1+math.Cos(math.Pi*progress))
}
