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
// With one query no channel token needs projecting: the score
// (e·W_K)·q is e·(W_K·q), and Σ_c α_c·(e_c·W_V) is (Σ_c α_c·e_c)·W_V,
// so a call forms one key W_K·q and projects one [T, D] mix.
type VariableAggregation struct {
	Channels, Dim int

	VarEmbed *Param  // [C, D] learned per-variable identity embedding
	Query    *Param  // [D]
	WK       *Linear // only WK.Weight is read: the key is W_K·q
	WV       *Linear

	// caches
	e     *tensor.Tensor // input + varEmbed, [C*T, D] view
	alpha *tensor.Tensor // attention weights [T, C]
	mix   *tensor.Tensor // Σ_c α·e, [T, D]
	de    *tensor.Tensor // owned input-gradient buffer [C, T, D]
	kq    []float32      // W_K·q
	dkq   []float32      // its gradient
	row   []float32      // eight tokens' weights [8, C]; the backward's first C hold one token's gradients
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
		kq:       make([]float32, dim),
		dkq:      make([]float32, dim),
		row:      make([]float32, 8*channels),
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
	ed, ve := va.e.Data(), va.VarEmbed.W.Data()
	copy(ed, x.Data())
	for r := 0; r < c*t; r++ {
		tensor.AddSlice(ed[r*d:], ve[r/t*d:(r/t+1)*d])
	}

	AggregationKey(va.kq, va.WK.Weight.W.Data(), va.Query.W.Data())
	va.alpha = tensor.Ensure(va.alpha, t, c)
	va.mix = tensor.Ensure(va.mix, t, d)
	AggregateTokens(va.mix.Data(), va.alpha.Data(), va.row, ed, va.kq, t, 0, t)
	return va.WV.Forward(va.mix)
}

// AggregationKey writes the aggregation's one key vector,
// kq[i] = Σ_j W_K[i,j]·q[j] summed in j order, for the row-major
// [D, D] key projection wk and the query q.
func AggregationKey(kq, wk, q []float32) {
	d := len(q)
	for i := range kq {
		wr := wk[i*d : (i+1)*d]
		var s float32
		for j, qv := range q {
			s += wr[j] * qv
		}
		kq[i] = s
	}
}

// AggregateTokens is the aggregation's cross-attention over tokens
// [t0, t1) of `tokens`: with C channels and D = len(kq), e is
// channel-major [C·tokens, D] and, per token t,
//
//	w[c]     = softmax_c((e[c,t,:] · kq) / √D)
//	out[t,:] = Σ_c w[c] · e[c,t,:]
//
// out is the mix the value projection then maps. row is scratch for
// eight tokens' weights, len(row) = 8·C; alpha [tokens, C], when not
// nil, keeps every token's weights (the module's backward cache). Like
// LayerNormRows it is the one definition of this rounding sequence —
// float32 dot and mix in channel order, float64 softmax sum — shared by
// VariableAggregation.Forward and infer.Plan. The loops below are that
// definition; each whole group of eight tokens runs its dots through
// tensor.AggregateDotsVec (a token per lane, the same j-ordered chain)
// and each token its mix through tensor.AggregateMixVec (a column per
// lane, the same channel-ordered chain from +0), and the loops finish
// the columns past the last whole vector. Tokens are independent, so
// out does not depend on how [t0, t1) is split or on alpha.
func AggregateTokens(out, alpha, row, e, kq []float32, tokens, t0, t1 int) {
	c, d, stride := len(row)/8, len(kq), tokens*len(kq)
	scale := float32(1 / math.Sqrt(float64(d)))
	for g := t0; g < t1; g += 8 {
		j0 := 0
		if g+8 <= t1 {
			j0 = tensor.AggregateDotsVec(row, e[g*d:], kq, stride, d)
		}
		for ti := g; ti < min(g+8, t1); ti++ {
			w, et := row[(ti-g)*c:(ti-g+1)*c], e[ti*d:]
			for ci := range w {
				var s float32
				if j0 > 0 {
					s = w[ci]
				}
				eb := et[ci*stride : ci*stride+d]
				for j := j0; j < d; j++ {
					s += float32(eb[j] * kq[j])
				}
				w[ci] = s * scale
			}
			softmaxRowInto(w, w)
			if alpha != nil {
				copy(alpha[ti*c:(ti+1)*c], w)
			}
			ob := out[ti*d : (ti+1)*d]
			for j := tensor.AggregateMixVec(ob, et, w, stride); j < d; j++ {
				var s float32
				for ci, a := range w {
					s += float32(a * et[ci*stride+j])
				}
				ob[j] = s
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

	dmd := va.WV.Backward(dy).Data() // dmix [T, D]
	va.de = tensor.Ensure(va.de, c, t, d)
	ded, ed, dved := va.de.Data(), va.e.Data(), va.VarEmbed.Grad.Data()
	dr, kq, dkq := va.row[:c], va.kq, va.dkq
	clear(dkq)
	for ti := 0; ti < t; ti++ {
		dmix := dmd[ti*d : (ti+1)*d]
		ar := va.alpha.Row(ti)
		// dα[c] = dmix · e[c,t,:]
		for ci := range dr {
			eb := ed[(ci*t+ti)*d : (ci*t+ti+1)*d]
			var s float32
			for k, g := range dmix {
				s += g * eb[k]
			}
			dr[ci] = s
		}
		// softmax backward over the channel axis, in place: ds[c]
		var dot float64
		for ci, a := range ar {
			dot += float64(a) * float64(dr[ci])
		}
		for ci, a := range ar {
			dr[ci] = a * (dr[ci] - float32(dot)) * scale
		}
		// de[c,t,:] = α[c]·dmix + ds[c]·kq, which dx is and dVarEmbed[c]
		// sums over tokens; dkq += ds[c]·e[c,t,:]
		for ci, a := range ar {
			ds := dr[ci]
			base := (ci*t + ti) * d
			eb, deb, dvb := ed[base:base+d], ded[base:base+d], dved[ci*d:(ci+1)*d]
			for k, g := range dmix {
				deb[k] = a*g + ds*kq[k]
				dvb[k] += deb[k]
				dkq[k] += ds * eb[k]
			}
		}
	}

	// kq = W_K·q: dW_K += dkq ⊗ q, dq += W_Kᵀ·dkq.
	q, dq := va.Query.W.Data(), va.Query.Grad.Data()
	wk, dwk := va.WK.Weight.W.Data(), va.WK.Weight.Grad.Data()
	for i, g := range dkq {
		for j, qv := range q {
			dwk[i*d+j] += g * qv
			dq[j] += wk[i*d+j] * g
		}
	}
	return va.de
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
