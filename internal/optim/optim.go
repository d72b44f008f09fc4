// Package optim provides the optimizers and learning-rate schedules
// used to train ORBIT models: AdamW (the standard for ViT training),
// plain SGD with momentum (as a baseline), cosine-with-warmup LR
// scheduling, and global gradient-norm clipping.
//
// Optimizers operate on nn.Param lists and keep their state (AdamW's
// first/second moments, the step count) per parameter in
// registration order. That state is exported and restorable —
// Moments, StepCount, SetStepCount — which is what lets sharded
// checkpoints capture a mid-run optimizer exactly and resume with a
// bit-identical loss trajectory (internal/ckpt, internal/train).
// Invariant: an optimizer steps every parameter it was built with,
// every call; partial steps would desynchronize the moment tensors
// from the weights they track.
package optim

import (
	"math"

	"orbit/internal/nn"
	"orbit/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update using the current gradients and the
	// given learning rate.
	Step(lr float64)
	// Params returns the parameter set being optimized.
	Params() []*nn.Param
}

// AdamW implements decoupled weight-decay Adam (Loshchilov & Hutter),
// the optimizer used by ClimaX/ORBIT fine-tuning and pre-training.
type AdamW struct {
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	params []*nn.Param
	m, v   []*tensor.Tensor
	step   int
	job    adamwJob // persistent update job (zero-alloc dispatch)
}

// adamwJob applies the AdamW update over elements [j0, j1) of one
// parameter in float32, with Step's coefficients (the bias corrections
// as reciprocals, so an element costs one division and one square
// root). Each element's update reads and writes only its own w/g/m/v
// cells, so any tile split is bit-identical to the serial loop. The
// loop below is the definition of the update; tensor.AdamWVec is its
// vector form (same operations, same bits) and takes the tile's leading
// whole vectors where the CPU has it.
type adamwJob struct {
	w, g, m, v []float32
	c          tensor.AdamWCoef
}

func (a *adamwJob) Tile(_, j0, j1 int) {
	c := &a.c
	j0 += tensor.AdamWVec(a.w[j0:j1], a.g[j0:j1], a.m[j0:j1], a.v[j0:j1], c)
	for j := j0; j < j1; j++ {
		g := a.g[j]
		m := c.B1*a.m[j] + c.C1*g
		v := c.B2*a.v[j] + c.C2*g*g
		a.m[j], a.v[j] = m, v
		w := a.w[j]
		a.w[j] = w - c.LR*((m*c.IBC1)/(float32(math.Sqrt(float64(v*c.IBC2)))+c.Eps)+c.WD*w)
	}
}

// optimCost weights one optimizer-update element against the dispatch
// threshold: the vector AdamW update's ≈ 0.5 ns on the host where the
// scalar float64 loop's 9.3 ns carried a weight of 8, rounded up to the
// smallest weight there is (docs/PERFORMANCE.md, "The dispatch
// threshold").
const optimCost = 1

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
		a.job = adamwJob{w: p.W.Data(), g: p.Grad.Data(), m: a.m[i].Data(), v: a.v[i].Data(), c: c}
		n := p.W.Len()
		tensor.ParallelFor(n, n*optimCost, &a.job)
		p.W.Bump()
	}
}

// Params returns the optimized parameter set.
func (a *AdamW) Params() []*nn.Param { return a.params }

// Moments exposes the first and second moment estimates, aligned with
// Params(), for checkpointing. The returned tensors are the live
// optimizer state: write into their Data() to restore a checkpoint.
func (a *AdamW) Moments() (m, v []*tensor.Tensor) { return a.m, a.v }

// StepCount returns the number of optimizer steps taken, the quantity
// Adam's bias correction depends on.
func (a *AdamW) StepCount() int { return a.step }

// SetStepCount restores the step counter from a checkpoint so bias
// correction continues exactly where the saved run left off.
func (a *AdamW) SetStepCount(n int) { a.step = n }

// StateBytesPerParam is the optimizer-state footprint AdamW adds per
// parameter (two float32 moments); the perf model uses this to compute
// sharded memory footprints.
const StateBytesPerParam = 8

// SGD implements stochastic gradient descent with classical momentum.
type SGD struct {
	Momentum float64

	params []*nn.Param
	vel    []*tensor.Tensor
	job    sgdJob // persistent update job (zero-alloc dispatch)
}

// sgdJob applies the momentum-SGD update over elements [j0, j1) of
// one parameter; elements are independent, so tiling is exact.
type sgdJob struct {
	w, g, v []float32
	mu, lr  float64
}

func (s *sgdJob) Tile(_, j0, j1 int) {
	for j := j0; j < j1; j++ {
		vj := s.mu*float64(s.v[j]) + float64(s.g[j])
		s.v[j] = float32(vj)
		s.w[j] = float32(float64(s.w[j]) - s.lr*vj)
	}
}

// NewSGD builds an SGD optimizer.
func NewSGD(params []*nn.Param, momentum float64) *SGD {
	s := &SGD{Momentum: momentum, params: params}
	for _, p := range params {
		s.vel = append(s.vel, tensor.New(p.W.Shape()...))
	}
	return s
}

// Step applies w ← w − lr·(μ·vel + g).
func (s *SGD) Step(lr float64) {
	for i, p := range s.params {
		s.job = sgdJob{w: p.W.Data(), g: p.Grad.Data(), v: s.vel[i].Data(), mu: s.Momentum, lr: lr}
		n := p.W.Len()
		tensor.ParallelFor(n, n*optimCost, &s.job)
		p.W.Bump()
	}
}

// Params returns the optimized parameter set.
func (s *SGD) Params() []*nn.Param { return s.params }

// Velocity exposes the momentum buffers, aligned with Params(), for
// checkpointing (live state, like AdamW.Moments).
func (s *SGD) Velocity() []*tensor.Tensor { return s.vel }

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

// ConstantSchedule returns a fixed learning rate.
type ConstantSchedule float64

// LR returns the constant rate.
func (c ConstantSchedule) LR(int) float64 { return float64(c) }
