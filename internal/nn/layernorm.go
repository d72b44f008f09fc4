package nn

import (
	"fmt"
	"math"

	"orbit/internal/tensor"
)

// LayerNorm normalizes each length-Dim vector of its input to zero
// mean and unit variance, then applies a learned affine transform:
// y = (x-μ)/√(σ²+ε) · γ + β. The input may have any rank; every
// trailing-dimension vector is normalized independently, so the fused
// attention path can pass head-major [H, T, d] stacks without
// reshaping.
//
// ORBIT applies additional LayerNorms to attention queries and keys
// (Sec. III-B "Architecture Optimization", following ViT-22B) to
// prevent attention-logit divergence; those reuse this layer.
type LayerNorm struct {
	Dim   int
	Eps   float64
	Gamma *Param // [dim]
	Beta  *Param // [dim]

	xhat *tensor.Tensor // cached normalized input
	rstd []float32      // cached reciprocal std per row
	out  *tensor.Tensor // owned output buffer
	dx   *tensor.Tensor // owned input-gradient buffer

	bwd lnBackward // backward operands + dγ/dβ run scratch
}

// LayerNormRows is the layer-norm forward over rows [r0, r1) of x, each
// len(gamma) wide: out = (x-μ)/√(σ²+ε)·γ + β in float32. It is the one
// definition of that rounding sequence: LayerNorm.Forward runs it over
// every row and keeps x̂ and 1/σ for Backward, inference (infer.Plan)
// runs it on its own buffers with xhat and rstd nil. The operands are
// explicit and nothing is retained, so callers
// may share weights across goroutines; rows are independent, so any
// split of [r0, r1) and either choice of caches produce the same bits
// in out. Each row's two sums run in eight-lane order — column c into
// partial sum c%8, the partials added by tensor.HSum8 — which is the
// order tensor.LayerNormRowsVec keeps along the row in eight float32
// lanes, four rows side by side. The loop below is the definition; the
// vector form takes the leading groups of four rows where the CPU has
// it and the width is whole vectors.
func LayerNormRows(out, xhat, rstd, x, gamma, beta []float32, eps float64, r0, r1 int) {
	dim := len(gamma)
	if xhat == nil {
		// No x̂ wanted: let its store land in out, where the affine
		// store that follows overwrites it — one loop body either way.
		xhat = out
	}
	e, n := float32(eps), float32(dim)
	r0 += tensor.LayerNormRowsVec(out, xhat, rstd, x, gamma, beta, e, r0, r1)
	for r := r0; r < r1; r++ {
		xr := x[r*dim : (r+1)*dim]
		var s [8]float32
		for c, v := range xr {
			s[c&7] += v
		}
		mean := tensor.HSum8(&s) / n
		s = [8]float32{}
		for c, v := range xr {
			d := v - mean
			s[c&7] += d * d
		}
		rs := 1 / float32(math.Sqrt(float64(tensor.HSum8(&s)/n+e)))
		if rstd != nil {
			rstd[r] = rs
		}
		hr, or := xhat[r*dim:(r+1)*dim], out[r*dim:(r+1)*dim]
		for c, v := range xr {
			h := (v - mean) * rs
			hr[c] = h
			or[c] = h*gamma[c] + beta[c]
		}
	}
}

// lnBackward computes the input gradient of every row. The loop is the
// definition, its row sums in the forward's eight-lane order;
// tensor.LayerNormDxVec is its vector form.
type lnBackward struct {
	dyd, hd, dxd, g, rstd []float32
	pg, pb                []float32 // [dim] partial dγ/dβ of one run of rows
}

func (j *lnBackward) inputGrad() {
	dim, rows := len(j.g), len(j.rstd)
	n := float32(dim)
	for r := tensor.LayerNormDxVec(j.dxd, j.dyd, j.hd, j.g, j.rstd, 0, rows); r < rows; r++ {
		dyr := j.dyd[r*dim : (r+1)*dim]
		hr := j.hd[r*dim : (r+1)*dim][:dim]
		dxr := j.dxd[r*dim : (r+1)*dim][:dim]
		var s, sh [8]float32
		for c, dyv := range dyr {
			d := dyv * j.g[c]
			s[c&7] += d
			sh[c&7] += d * hr[c]
		}
		a, b, rs := tensor.HSum8(&s)/n, tensor.HSum8(&sh)/n, j.rstd[r]
		for c, dyv := range dyr {
			dxr[c] = (dyv*j.g[c] - a - hr[c]*b) * rs
		}
	}
}

// lnParamRuns is the most runs dγ/dβ sums its rows in.
const lnParamRuns = 32

// paramGrads adds this backward's dγ/dβ to dg and db. The reduction
// runs across rows, so its order is fixed as a function of the row
// count alone: runs of ⌈rows / min(rows, lnParamRuns)⌉ rows are summed
// from zero — float32 multiply, then add — and each run's partial is
// added to the gradient, runs in order. The stored training
// trajectories (train's TestTrainTrajectoryGolden) pin that order. The
// loop is the definition; tensor.LayerNormParamGradVec is its vector
// form and takes the leading whole vectors of columns.
func (j *lnBackward) paramGrads(dg, db []float32) {
	dim, rows := len(j.g), len(j.rstd)
	if rows == 0 {
		return
	}
	runs := min(rows, lnParamRuns)
	chunk := (rows + runs - 1) / runs
	c0 := tensor.LayerNormParamGradVec(dg, db, j.dyd, j.hd, rows, chunk)
	if c0 == dim {
		return
	}
	if cap(j.pg) < dim {
		j.pg, j.pb = make([]float32, dim), make([]float32, dim)
	}
	pg, pb := j.pg[:dim], j.pb[:dim]
	for r0 := 0; r0 < rows; r0 += chunk {
		clear(pg[c0:])
		clear(pb[c0:])
		for r := r0; r < min(r0+chunk, rows); r++ {
			for c := c0; c < dim; c++ {
				dyv := j.dyd[r*dim+c]
				pg[c] += dyv * j.hd[r*dim+c]
				pb[c] += dyv
			}
		}
		for c := c0; c < dim; c++ {
			dg[c] += pg[c]
			db[c] += pb[c]
		}
	}
}

// NewLayerNorm builds a layer norm over vectors of length dim with
// γ=1, β=0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	return &LayerNorm{
		Dim:   dim,
		Eps:   1e-5,
		Gamma: NewParam(name+".gamma", tensor.Ones(dim)),
		Beta:  NewParam(name+".beta", tensor.New(dim)),
	}
}

// rows returns the number of normalized vectors in x after checking
// the trailing dimension.
func (l *LayerNorm) rows(x *tensor.Tensor, op string) int {
	if x.Dim(x.Rank()-1) != l.Dim {
		panic(fmt.Sprintf("nn: LayerNorm %s dimension %v, want trailing %d", op, x.Shape(), l.Dim))
	}
	return x.Len() / l.Dim
}

// Forward normalizes every trailing-dimension vector of x.
func (l *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	rows := l.rows(x, "Forward")
	l.xhat = tensor.Ensure(l.xhat, x.Shape()...)
	if cap(l.rstd) < rows {
		l.rstd = make([]float32, rows)
	}
	l.rstd = l.rstd[:rows]
	l.out = tensor.Ensure(l.out, x.Shape()...)
	LayerNormRows(l.out.Data(), l.xhat.Data(), l.rstd, x.Data(), l.Gamma.W.Data(), l.Beta.W.Data(), l.Eps, 0, rows)
	return l.out
}

// Backward computes input gradients and accumulates dγ, dβ using the
// standard layer-norm backward:
// dx = rstd/D · (D·dxhat − Σdxhat − xhat·Σ(dxhat⊙xhat)) with
// dxhat = dy ⊙ γ. dγ/dβ reduce across every row in a fixed order
// (lnBackward.paramGrads).
func (l *LayerNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	rows := l.rows(dy, "Backward")
	l.dx = tensor.Ensure(l.dx, dy.Shape()...)
	l.bwd.dyd, l.bwd.hd, l.bwd.dxd = dy.Data(), l.xhat.Data(), l.dx.Data()
	l.bwd.g, l.bwd.rstd = l.Gamma.W.Data(), l.rstd[:rows]
	l.bwd.inputGrad()
	l.bwd.paramGrads(l.Gamma.Grad.Data(), l.Beta.Grad.Data())
	return l.dx
}

// Params returns γ and β.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }
