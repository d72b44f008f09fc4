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

	x    *tensor.Tensor // cached input
	xhat *tensor.Tensor // cached normalized input
	rstd []float64      // cached reciprocal std per row
	out  *tensor.Tensor // owned output buffer
	dx   *tensor.Tensor // owned input-gradient buffer

	fwd lnFwdJob // persistent forward job (zero-alloc dispatch)
	bwd lnBwdJob // persistent backward job + per-tile reduction scratch
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
// in out.
func LayerNormRows(out, xhat []float32, rstd []float64, x, gamma, beta []float32, eps float64, r0, r1 int) {
	dim := len(gamma)
	if xhat == nil {
		// No x̂ wanted: let its store land in out, where the affine
		// store that follows overwrites it — one loop body either way.
		xhat = out
	}
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

// lnFwdJob is LayerNormRows with its operands bound, for ParallelFor.
type lnFwdJob struct {
	xd, hd, od, g, b []float32
	rstd             []float64
	eps              float64
}

func (j *lnFwdJob) Tile(_, r0, r1 int) {
	LayerNormRows(j.od, j.hd, j.rstd, j.xd, j.g, j.b, j.eps, r0, r1)
}

// lnBwdJob computes per-row input gradients and accumulates the
// cross-row dγ/dβ reduction into PER-TILE partials (tile t owns
// dg/db/dh[t*dim:(t+1)*dim]). Backward merges the partials serially
// in tile order, so the reduction sequence is a function of the fixed
// tile decomposition only — bit-identical at any worker count.
type lnBwdJob struct {
	dyd, hd, dxd, g []float32
	rstd            []float64
	dim             int
	dg, db          []float32 // [tiles*dim] partial parameter gradients
	dh              []float64 // [tiles*dim] per-row dxhat scratch
}

func (j *lnBwdJob) Tile(tile, r0, r1 int) {
	dim := j.dim
	dg := j.dg[tile*dim : (tile+1)*dim]
	db := j.db[tile*dim : (tile+1)*dim]
	dh := j.dh[tile*dim : (tile+1)*dim]
	invD := 1 / float64(dim)
	for r := r0; r < r1; r++ {
		dyr := j.dyd[r*dim : (r+1)*dim]
		hr := j.hd[r*dim : (r+1)*dim][:dim]
		dxr := j.dxd[r*dim : (r+1)*dim][:dim]
		var sumDh, sumDhH float64
		for c, dyv := range dyr {
			d := float64(dyv) * float64(j.g[c])
			dh[c] = d
			sumDh += d
			sumDhH += d * float64(hr[c])
			dg[c] += dyv * hr[c]
			db[c] += dyv
		}
		rstd := j.rstd[r]
		a, b := invD*sumDh, invD*sumDhH
		for c, d := range dh {
			dxr[c] = float32(rstd * (d - a - float64(hr[c])*b))
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
	l.x = x
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
	tensor.ParallelFor(rows, rows*dim*8, &l.fwd)
	return l.out
}

// Backward computes input gradients and accumulates dγ, dβ using the
// standard layer-norm backward:
// dx = rstd/D · (D·dxhat − Σdxhat − xhat·Σ(dxhat⊙xhat)) with
// dxhat = dy ⊙ γ.
//
// dγ/dβ reduce across every row, so tiles accumulate partials that
// are merged here in fixed tile order — the one reduction in the
// threaded kernels whose sequence differs from the old single-pass
// serial loop, chosen so results cannot depend on the worker count.
func (l *LayerNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	rows, dim := l.rows(dy, "Backward"), l.Dim
	l.dx = tensor.Ensure(l.dx, dy.Shape()...)
	tiles := tensor.NumTiles(rows)
	if cap(l.bwd.dg) < tiles*dim {
		l.bwd.dg = make([]float32, tiles*dim)
		l.bwd.db = make([]float32, tiles*dim)
		l.bwd.dh = make([]float64, tiles*dim)
	}
	l.bwd.dg = l.bwd.dg[:tiles*dim]
	l.bwd.db = l.bwd.db[:tiles*dim]
	l.bwd.dh = l.bwd.dh[:tiles*dim]
	clear(l.bwd.dg)
	clear(l.bwd.db)
	l.bwd.dyd, l.bwd.hd, l.bwd.dxd = dy.Data(), l.xhat.Data(), l.dx.Data()
	l.bwd.g, l.bwd.rstd, l.bwd.dim = l.Gamma.W.Data(), l.rstd, dim
	tensor.ParallelFor(rows, rows*dim*8, &l.bwd)
	dg, db := l.Gamma.Grad.Data(), l.Beta.Grad.Data()
	for t := 0; t < tiles; t++ {
		pg := l.bwd.dg[t*dim : (t+1)*dim]
		pb := l.bwd.db[t*dim : (t+1)*dim]
		for c := 0; c < dim; c++ {
			dg[c] += pg[c]
			db[c] += pb[c]
		}
	}
	return l.dx
}

// Params returns γ and β.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }
