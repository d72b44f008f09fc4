package nn

import (
	"fmt"
	"math"

	"orbit/internal/tensor"
)

// VariableAggregation fuses per-channel token embeddings [C, T, D]
// into a single token sequence [T, D] by cross-attention with one
// learned query per model — the ClimaX "variable aggregation" module
// (paper Fig. 1). Each channel first receives a learned variable
// embedding so physically different variables remain distinguishable;
// then, independently for every spatial token, a single learned query
// attends over the C channel embeddings.
type VariableAggregation struct {
	Channels, Dim int

	VarEmbed *Param // [C, D] learned per-variable identity embedding
	Query    *Param // [D]
	WK, WV   *Linear

	// caches
	e     *tensor.Tensor // input + varEmbed, [C*T, D] view
	kMat  *tensor.Tensor // keys [C*T, D]
	vMat  *tensor.Tensor // values [C*T, D]
	alpha *tensor.Tensor // attention weights [T, C]
	out   *tensor.Tensor // owned output buffer [T, D]
	row   []float32      // one token's scores, then weights
	tOut  int
}

// NewVariableAggregation builds the aggregation module.
func NewVariableAggregation(name string, channels, dim int, rng *tensor.RNG) *VariableAggregation {
	return &VariableAggregation{
		Channels: channels,
		Dim:      dim,
		VarEmbed: NewParam(name+".varembed", tensor.Randn(rng, 0.02, channels, dim)),
		Query:    NewParam(name+".query", tensor.Randn(rng, 0.02, dim)),
		WK:       NewLinear(name+".wk", dim, dim, false, rng),
		WV:       NewLinear(name+".wv", dim, dim, false, rng),
		row:      make([]float32, channels),
	}
}

// Forward maps [C, T, D] -> [T, D].
func (va *VariableAggregation) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkRank("VariableAggregation", x, 3)
	c, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	if c != va.Channels || d != va.Dim {
		panic(fmt.Sprintf("nn: VariableAggregation input %v, want [%d T %d]", x.Shape(), va.Channels, va.Dim))
	}
	va.tOut = t

	// e[c,t,:] = x[c,t,:] + varEmbed[c,:]
	va.e = tensor.Ensure(va.e, c*t, d)
	ed := va.e.Data()
	xd := x.Data()
	ve := va.VarEmbed.W.Data()
	for ci := 0; ci < c; ci++ {
		for ti := 0; ti < t; ti++ {
			base := (ci*t + ti) * d
			vb := ci * d
			for k := 0; k < d; k++ {
				ed[base+k] = xd[base+k] + ve[vb+k]
			}
		}
	}

	va.kMat = va.WK.Forward(va.e) // [C*T, D]
	va.vMat = va.WV.Forward(va.e) // [C*T, D]

	va.alpha = tensor.Ensure(va.alpha, t, c)
	va.out = tensor.Ensure(va.out, t, d)
	AggregateTokens(va.out.Data(), va.alpha.Data(), va.row,
		va.kMat.Data(), va.vMat.Data(), va.Query.W.Data(), t, 0, t)
	return va.out
}

// AggregateTokens is the aggregation's cross-attention over tokens
// [t0, t1) of `tokens`: with C = len(row) channels and D = len(q), k
// and v are channel-major [C·tokens, D] and, per token t,
//
//	row[c]   = softmax_c((k[c,t,:] · q) / √D)
//	out[t,:] = Σ_c row[c] · v[c,t,:]
//
// row is one token's scratch; alpha [tokens, C], when not nil, keeps
// every token's weights (the module's backward cache). Like
// LayerNormRows it is the one definition of this rounding sequence —
// float32 dot and mix in channel order, float64 softmax sum — shared by
// VariableAggregation.Forward and infer.Plan; tokens are independent,
// so out does not depend on how [t0, t1) is split or on alpha.
func AggregateTokens(out, alpha, row, k, v, q []float32, tokens, t0, t1 int) {
	c, d := len(row), len(q)
	scale := float32(1 / math.Sqrt(float64(d)))
	for ti := t0; ti < t1; ti++ {
		for ci := range row {
			kb := k[(ci*tokens+ti)*d : (ci*tokens+ti+1)*d]
			var s float32
			for j, qv := range q {
				s += kb[j] * qv
			}
			row[ci] = s * scale
		}
		softmaxRowInto(row, row)
		if alpha != nil {
			copy(alpha[ti*c:(ti+1)*c], row)
		}
		ob := out[ti*d : (ti+1)*d]
		clear(ob)
		for ci, a := range row {
			vb := v[(ci*tokens+ti)*d : (ci*tokens+ti+1)*d]
			for j := range ob {
				ob[j] += a * vb[j]
			}
		}
	}
}

// softmaxRowInto writes the max-subtracted softmax of in to out (which
// may be in itself), accumulating the normalizer in float64.
func softmaxRowInto(in, out []float32) {
	maxv := in[0]
	for _, v := range in[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range in {
		e := math.Exp(float64(v - maxv))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
}

// Backward maps d[T, D] -> d[C, T, D] and accumulates gradients for
// the query, the key/value projections, and the variable embeddings.
func (va *VariableAggregation) Backward(dy *tensor.Tensor) *tensor.Tensor {
	checkRank("VariableAggregation", dy, 2)
	c, t, d := va.Channels, va.tOut, va.Dim
	scale := float32(1 / math.Sqrt(float64(d)))

	dK := tensor.New(c*t, d)
	dV := tensor.New(c*t, d)
	dq := va.Query.Grad.Data()
	q := va.Query.W.Data()
	kd := va.kMat.Data()
	vd := va.vMat.Data()
	dyd := dy.Data()
	dkd := dK.Data()
	dvd := dV.Data()

	dAlphaRow := make([]float32, c)
	dScoreRow := make([]float32, c)
	for ti := 0; ti < t; ti++ {
		dout := dyd[ti*d : (ti+1)*d]
		ar := va.alpha.Row(ti)
		// dα[c] = dout · v[c,t,:]; dv[c,t,:] += α[c]*dout
		for ci := 0; ci < c; ci++ {
			base := (ci*t + ti) * d
			var s float32
			vb := vd[base : base+d]
			dvb := dvd[base : base+d]
			a := ar[ci]
			for k := 0; k < d; k++ {
				s += dout[k] * vb[k]
				dvb[k] += a * dout[k]
			}
			dAlphaRow[ci] = s
		}
		// softmax backward over the channel axis
		var dot float64
		for ci := 0; ci < c; ci++ {
			dot += float64(ar[ci]) * float64(dAlphaRow[ci])
		}
		for ci := 0; ci < c; ci++ {
			dScoreRow[ci] = ar[ci] * (dAlphaRow[ci] - float32(dot)) * scale
		}
		// dk[c,t,:] += ds[c]*q ; dq += ds[c]*k[c,t,:]
		for ci := 0; ci < c; ci++ {
			ds := dScoreRow[ci]
			base := (ci*t + ti) * d
			kb := kd[base : base+d]
			dkb := dkd[base : base+d]
			for k := 0; k < d; k++ {
				dkb[k] += ds * q[k]
				dq[k] += ds * kb[k]
			}
		}
	}

	dE := va.WK.Backward(dK)
	dE.AddInPlace(va.WV.Backward(dV))

	// Gradient of the variable embedding: sum dE over tokens per
	// channel; dx equals dE reshaped.
	dved := va.VarEmbed.Grad.Data()
	ded := dE.Data()
	for ci := 0; ci < c; ci++ {
		for ti := 0; ti < t; ti++ {
			base := (ci*t + ti) * d
			vb := ci * d
			for k := 0; k < d; k++ {
				dved[vb+k] += ded[base+k]
			}
		}
	}
	return dE.Reshape(c, t, d)
}

// Params returns the module's trainable parameters.
func (va *VariableAggregation) Params() []*Param {
	ps := []*Param{va.VarEmbed, va.Query}
	ps = append(ps, va.WK.Params()...)
	ps = append(ps, va.WV.Params()...)
	return ps
}

// AttentionWeights returns the most recent [T, C] aggregation weights
// (useful for interpreting which variables the model attends to).
func (va *VariableAggregation) AttentionWeights() *tensor.Tensor { return va.alpha }
