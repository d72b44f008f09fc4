package nn

import (
	"orbit/internal/tensor"
)

// Linear is a fully connected layer y = xW + b over rank-2 inputs
// [rows, in] -> [rows, out].
//
// Forward and Backward write into buffers owned by the layer and
// reused across steps (see the package comment on buffer ownership):
// the returned tensors are valid until the layer's next call.
type Linear struct {
	In, Out int
	Weight  *Param // [in, out]
	Bias    *Param // [out], nil when built without bias

	x  *tensor.Tensor // cached input for backward
	y  *tensor.Tensor // owned output buffer
	dx *tensor.Tensor // owned input-gradient buffer
	db *tensor.Tensor // this backward's bias gradient, summed from zero

	// wt caches Wᵀ [out, in], the right operand of dx = dy·Wᵀ, valid
	// while wtVer == Weight.W.Version()+1. Weights only change at
	// optimizer steps / weight loads, so the micro-batches of a step
	// share one transpose — llama.go's persistent-context idiom.
	wt    *tensor.Tensor
	wtVer uint64
}

// NewLinear builds a linear layer with Xavier-uniform weights and zero
// bias. The RNG is advanced deterministically.
func NewLinear(name string, in, out int, withBias bool, rng *tensor.RNG) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: NewParam(name+".weight", tensor.XavierUniform(rng, in, out)),
	}
	if withBias {
		l.Bias = NewParam(name+".bias", tensor.New(out))
	}
	return l
}

// NewLinearFromWeights wraps pre-built weight (and optional bias)
// tensors; used by the parallel engines to install shards of a
// reference model.
func NewLinearFromWeights(name string, w, b *tensor.Tensor) *Linear {
	l := &Linear{
		In:     w.Dim(0),
		Out:    w.Dim(1),
		Weight: NewParam(name+".weight", w),
	}
	if b != nil {
		l.Bias = NewParam(name+".bias", b)
	}
	return l
}

// Forward computes y = xW (+ b), fusing the bias broadcast into the
// matmul store so no intermediate is materialized.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkRank("Linear", x, 2)
	if x.Dim(1) != l.In {
		panic("nn: Linear input dimension mismatch")
	}
	l.x = x
	l.y = tensor.Ensure(l.y, x.Dim(0), l.Out)
	var bias *tensor.Tensor
	if l.Bias != nil {
		bias = l.Bias.W
	}
	return tensor.MatMulBiasInto(l.y, x, l.Weight.W, bias)
}

// Backward accumulates dW += xᵀdy and db += Σrows dy into the gradient
// accumulators, and returns dx = dy Wᵀ. Each gets one add: the product
// is one chain from zero added at its store, and the rows of dy are
// summed into a zeroed scratch first, so the accumulator after several
// backwards is the sequential sum of their gradients. A StoreGrad
// parameter takes the same chain, or the same row sum, as a store.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	checkRank("Linear", dy, 2)
	if l.Weight.StoreGrad {
		tensor.MatMulTransAInto(l.Weight.Grad, l.x, dy)
	} else {
		tensor.MatMulTransAAccInto(l.Weight.Grad, l.x, dy)
	}
	if b := l.Bias; b != nil && b.StoreGrad {
		b.Grad.Zero()
		tensor.SumRowsAccInto(b.Grad, dy)
	} else if b != nil {
		l.db = tensor.Ensure(l.db, l.Out)
		l.db.Zero()
		b.Grad.AddInPlace(tensor.SumRowsAccInto(l.db, dy))
	}
	if l.wtVer != l.Weight.W.Version()+1 {
		l.wt = tensor.TransposeInto(tensor.Ensure(l.wt, l.Out, l.In), l.Weight.W)
		l.wtVer = l.Weight.W.Version() + 1
	}
	l.dx = tensor.Ensure(l.dx, dy.Dim(0), l.In)
	return tensor.MatMulInto(l.dx, dy, l.wt)
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param {
	if l.Bias == nil {
		return []*Param{l.Weight}
	}
	return []*Param{l.Weight, l.Bias}
}
