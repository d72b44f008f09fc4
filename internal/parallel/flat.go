// Package parallel holds the two building blocks Hybrid-STOP shares
// with everything else that touches a sharded transformer: the
// Megatron-style tensor-parallel cut (tp.go) and the flat-parameter
// helpers (this file) that pack a parameter list into the zero-padded
// vector FSDP chunks are cut from. internal/core composes them into
// the TP×FSDP×DDP engine, internal/infer serves TP shards with them,
// and internal/plan counts the same shard sizes.
//
// A TP shard has no forward or backward of its own: NewTPBlock builds
// an nn.TransformerBlock over column/row cuts of the reference weights
// (the paper's Eqn. 2; rank 0 carries the unsharded output biases), so
// a layer's arithmetic is defined once, in package nn. Its all-reduces
// are not here either: the block exposes each half's partial sum, and
// core's stage pass orders the collectives around them.
//
// The baselines the paper compares against (Sec. II "State of the
// Art") are not engines of their own: they are corners of the one rank
// grid. Fully sharded data parallelism (Fig. 2) is core.Layout{TP: 1}
// — vanilla FSDP with core.Options.LayerWrapping off — and distributed
// data parallelism is core.Layout{TP: 1, FSDP: 1}.
package parallel

import (
	"fmt"

	"orbit/internal/nn"
	"orbit/internal/tensor"
)

// FlattenParams concatenates parameter weights into one flat vector,
// padded with zeros to a multiple of `multiple` so it can be sharded
// evenly. The layout is the natural parameter order.
func FlattenParams(params []*nn.Param, multiple int) []float32 {
	flat := make([]float32, NumelPadded(params, multiple))
	off := 0
	for _, p := range params {
		off += copy(flat[off:], p.W.Data())
	}
	return flat
}

// BindFlat makes the parameters views of two flat vectors: each W
// becomes the tensor over its running offset of flat — the vector
// FlattenParams built from these parameters, so no value moves — and
// each Grad the tensor over the same offset of a second, zero vector of
// the same length, which is returned. From here on the flat vectors are
// the storage: a collective that writes flat has written the weights
// (and owes each W a Bump), clearing the gradient vector zeroes every
// Grad, and the padding tails stay zero because no view reaches them.
func BindFlat(flat []float32, params []*nn.Param) (grads []float32) {
	grads = make([]float32, len(flat))
	off := 0
	for _, p := range params {
		end := off + p.W.Len()
		shape := p.W.Shape()
		p.W = tensor.FromSlice(flat[off:end:end], shape...)
		p.Grad = tensor.FromSlice(grads[off:end:end], shape...)
		off = end
	}
	return grads
}

// NumelPadded returns the padded flat length used by Flatten*.
func NumelPadded(params []*nn.Param, multiple int) int {
	n := 0
	for _, p := range params {
		n += p.W.Len()
	}
	return Padded(n, multiple)
}

// Padded rounds n elements up to a multiple of multiple: the flat
// length FlattenParams gives n parameters chunked multiple ways.
func Padded(n, multiple int) int {
	return ((n + multiple - 1) / multiple) * multiple
}

// shardOfBias returns shard k of K of a bias vector [n].
func shardOfBias(b *tensor.Tensor, k, kTotal int) *tensor.Tensor {
	n := b.Dim(0)
	if n%kTotal != 0 {
		panic(fmt.Sprintf("parallel: bias length %d not divisible by %d", n, kTotal))
	}
	part := n / kTotal
	out := tensor.New(part)
	copy(out.Data(), b.Data()[k*part:(k+1)*part])
	return out
}
