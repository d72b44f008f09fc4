package nn

import (
	"math"

	"orbit/internal/tensor"
)

// PositionalEmbedding adds a learned position embedding to a token
// sequence [T, D].
type PositionalEmbedding struct {
	Tokens, Dim int
	Embed       *Param // [T, D]

	out *tensor.Tensor // owned output buffer
}

// NewPositionalEmbedding builds a learned positional embedding
// initialized with small Gaussian noise.
func NewPositionalEmbedding(name string, tokens, dim int, rng *tensor.RNG) *PositionalEmbedding {
	return &PositionalEmbedding{
		Tokens: tokens, Dim: dim,
		Embed: NewParam(name+".pos", tensor.Randn(rng, 0.02, tokens, dim)),
	}
}

// Forward adds the embedding: [T, D] -> [T, D].
func (p *PositionalEmbedding) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkRank("PositionalEmbedding", x, 2)
	p.out = tensor.Ensure(p.out, x.Shape()...)
	return tensor.AddInto(p.out, x, p.Embed.W)
}

// Backward accumulates the embedding gradient and passes dy through.
func (p *PositionalEmbedding) Backward(dy *tensor.Tensor) *tensor.Tensor {
	p.Embed.Grad.AddInPlace(dy)
	return dy
}

// Params returns the embedding parameter.
func (p *PositionalEmbedding) Params() []*Param { return []*Param{p.Embed} }

// LeadTimeEmbedding conditions the token sequence on the forecast lead
// time, as ClimaX does: the lead time (in hours) is encoded with
// sinusoidal features and linearly projected to an offset added to
// every token.
type LeadTimeEmbedding struct {
	Dim  int
	Proj *Linear

	feat *tensor.Tensor // cached sinusoidal features [1, Dim]
	out  *tensor.Tensor // owned output buffer
	dOff *tensor.Tensor // owned offset gradient [1, Dim]
}

// NewLeadTimeEmbedding builds the lead-time conditioning module.
func NewLeadTimeEmbedding(name string, dim int, rng *tensor.RNG) *LeadTimeEmbedding {
	return &LeadTimeEmbedding{Dim: dim, Proj: NewLinear(name+".proj", dim, dim, true, rng)}
}

// LeadTimeFeatures writes the sinusoidal encoding of a lead time in
// hours into dst: sin and cos of leadHours·10000^(−2i/D) interleaved,
// D = len(dst). The one definition, shared with infer.Plan.
func LeadTimeFeatures(dst []float32, leadHours float64) {
	dim := len(dst)
	for i := 0; i < dim/2; i++ {
		freq := math.Pow(10000, -2*float64(i)/float64(dim))
		dst[2*i] = float32(math.Sin(leadHours * freq))
		dst[2*i+1] = float32(math.Cos(leadHours * freq))
	}
}

// ForwardWithLead adds the projected lead-time embedding to every
// token of x [T, D].
func (l *LeadTimeEmbedding) ForwardWithLead(x *tensor.Tensor, leadHours float64) *tensor.Tensor {
	checkRank("LeadTimeEmbedding", x, 2)
	l.feat = tensor.Ensure(l.feat, 1, l.Dim)
	LeadTimeFeatures(l.feat.Data(), leadHours)
	off := l.Proj.Forward(l.feat) // [1, D]
	l.out = tensor.Ensure(l.out, x.Shape()...)
	return tensor.AddRowVectorInto(l.out, x, off)
}

// Backward accumulates projection gradients (the offset receives the
// sum of dy over tokens) and passes dy through to the tokens.
func (l *LeadTimeEmbedding) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l.dOff = tensor.Ensure(l.dOff, 1, l.Dim)
	l.dOff.Zero()
	l.Proj.Backward(tensor.SumRowsAccInto(l.dOff, dy))
	return dy
}

// Params returns the projection parameters.
func (l *LeadTimeEmbedding) Params() []*Param { return l.Proj.Params() }
