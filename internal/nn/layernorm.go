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
	rstd []float64      // cached reciprocal std per row
	out  *tensor.Tensor // owned output buffer
	dx   *tensor.Tensor // owned input-gradient buffer

	fwd lnFwdJob // persistent forward job (zero-alloc dispatch)
	bwd lnBwdJob // persistent backward job + dγ/dβ run scratch
}

// LayerNormRows is the layer-norm forward over rows [r0, r1) of x, each
// len(gamma) wide: out = (x-μ)/√(σ²+ε)·γ + β, statistics in float64,
// x̂ rounded to float32 before the affine step. It is the one
// definition of that rounding sequence: LayerNorm.Forward tiles it
// through ParallelFor and keeps x̂ and 1/σ for Backward, inference
// (infer.Plan) runs it serially on its own buffers with xhat and rstd
// nil. The operands are explicit and nothing is retained, so callers
// may share weights across goroutines; rows are independent, so any
// split of [r0, r1) and either choice of caches produce the same bits
// in out. The loop below is the definition; tensor.LayerNormRowsVec is
// its vector form, four rows at a time with one row per lane so that
// each row's sums keep this loop's order, and takes the leading groups
// of four rows where the CPU has it.
func LayerNormRows(out, xhat []float32, rstd []float64, x, gamma, beta []float32, eps float64, r0, r1 int) {
	dim := len(gamma)
	if xhat == nil {
		// No x̂ wanted: let its store land in out, where the affine
		// store that follows overwrites it — one loop body either way.
		xhat = out
	}
	r0 += tensor.LayerNormRowsVec(out, xhat, rstd, x, gamma, beta, eps, r0, r1)
	for r := r0; r < r1; r++ {
		xr := x[r*dim : (r+1)*dim]
		var mean float64
		for _, v := range xr {
			mean += float64(v)
		}
		mean /= float64(dim)
		var variance float64
		for _, v := range xr {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(dim)
		rs := 1 / math.Sqrt(variance+eps)
		if rstd != nil {
			rstd[r] = rs
		}
		hr := xhat[r*dim : (r+1)*dim]
		or := out[r*dim : (r+1)*dim]
		for c, v := range xr {
			h := float32((float64(v) - mean) * rs)
			hr[c] = h
			or[c] = h*gamma[c] + beta[c]
		}
	}
}

// lnGroup is the dispatch item of LayerNorm's forward and of its input
// gradient: a fixed group of rows, the vector kernels' four. Were the
// item one row, NumTiles would hand every tile of a 32-row block a
// single row and the four-row kernels would never run. Rows are
// independent in both passes, so the grouping moves no bit.
const lnGroup = 4

// lnCost weights one element of a LayerNorm pass against the dispatch
// threshold: the vector kernels' ≈ 1.0–1.3 ns (forward, and backward
// with its dγ/dβ reduction) on the host where the scalar loops' 3.2–5.4
// ns carried a weight of 8, so the serial/parallel cutover stays at the
// same wall time (docs/PERFORMANCE.md, "The dispatch threshold").
const lnCost = 2

// lnFwdJob is LayerNormRows with its operands bound, for ParallelFor
// over groups of lnGroup rows.
type lnFwdJob struct {
	xd, hd, od, g, b []float32
	rstd             []float64
	eps              float64
}

func (j *lnFwdJob) Tile(_, g0, g1 int) {
	LayerNormRows(j.od, j.hd, j.rstd, j.xd, j.g, j.b, j.eps, g0*lnGroup, min(g1*lnGroup, len(j.rstd)))
}

// lnBwdJob computes the input gradient of rows grouped as in the
// forward. The loop is the definition; tensor.LayerNormDxVec is its
// vector form (one row per lane for the two row sums).
type lnBwdJob struct {
	dyd, hd, dxd, g []float32
	rstd            []float64
	pg, pb          []float32 // [dim] partial dγ/dβ of one run of rows
}

func (j *lnBwdJob) Tile(_, g0, g1 int) {
	dim := len(j.g)
	r0, r1 := g0*lnGroup, min(g1*lnGroup, len(j.rstd))
	r0 += tensor.LayerNormDxVec(j.dxd, j.dyd, j.hd, j.g, j.rstd, r0, r1)
	invD := 1 / float64(dim)
	for r := r0; r < r1; r++ {
		dyr := j.dyd[r*dim : (r+1)*dim]
		hr := j.hd[r*dim : (r+1)*dim][:dim]
		dxr := j.dxd[r*dim : (r+1)*dim][:dim]
		var sumDh, sumDhH float64
		for c, dyv := range dyr {
			d := float64(dyv) * float64(j.g[c])
			sumDh += d
			sumDhH += d * float64(hr[c])
		}
		rstd := j.rstd[r]
		a, b := invD*sumDh, invD*sumDhH
		for c, dyv := range dyr {
			d := float64(dyv) * float64(j.g[c])
			dxr[c] = float32(rstd * (d - a - float64(hr[c])*b))
		}
	}
}

// paramGrads adds this backward's dγ/dβ to dg and db. The reduction
// runs across rows, so its order is fixed as a function of the row
// count alone: runs of ⌈rows / NumTiles(rows)⌉ rows are summed from
// zero — float32 multiply, then add — and each run's partial is added
// to the gradient, runs in order. (That is the tile-ordered merge of
// per-tile partials, minus the all-zero partials of trailing empty
// tiles: g + 0 is g unless g is −0, and a sum begun at +0 never is.)
// The loop is the definition; tensor.LayerNormParamGradVec is its
// vector form and takes the leading whole vectors of columns.
func (j *lnBwdJob) paramGrads(dg, db []float32) {
	dim, rows := len(j.g), len(j.rstd)
	if rows == 0 {
		return
	}
	chunk := (rows + tensor.NumTiles(rows) - 1) / tensor.NumTiles(rows)
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
	rows, dim := l.rows(x, "Forward"), l.Dim
	l.xhat = tensor.Ensure(l.xhat, x.Shape()...)
	if cap(l.rstd) < rows {
		l.rstd = make([]float64, rows)
	}
	l.rstd = l.rstd[:rows]
	l.out = tensor.Ensure(l.out, x.Shape()...)
	l.fwd = lnFwdJob{
		xd: x.Data(), hd: l.xhat.Data(), od: l.out.Data(),
		g: l.Gamma.W.Data(), b: l.Beta.W.Data(),
		rstd: l.rstd, eps: l.Eps,
	}
	tensor.ParallelFor((rows+lnGroup-1)/lnGroup, rows*dim*lnCost, &l.fwd)
	return l.out
}

// Backward computes input gradients and accumulates dγ, dβ using the
// standard layer-norm backward:
// dx = rstd/D · (D·dxhat − Σdxhat − xhat·Σ(dxhat⊙xhat)) with
// dxhat = dy ⊙ γ. dx is dispatched over row groups; dγ/dβ reduce across
// every row and are summed on the caller in a fixed order
// (lnBwdJob.paramGrads), so neither depends on the worker count.
func (l *LayerNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	rows, dim := l.rows(dy, "Backward"), l.Dim
	l.dx = tensor.Ensure(l.dx, dy.Shape()...)
	l.bwd.dyd, l.bwd.hd, l.bwd.dxd = dy.Data(), l.xhat.Data(), l.dx.Data()
	l.bwd.g, l.bwd.rstd = l.Gamma.W.Data(), l.rstd[:rows]
	tensor.ParallelFor((rows+lnGroup-1)/lnGroup, rows*dim*lnCost, &l.bwd)
	l.bwd.paramGrads(l.Gamma.Grad.Data(), l.Beta.Grad.Data())
	return l.dx
}

// Params returns γ and β.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }
