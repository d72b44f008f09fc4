package nn

import (
	"math"
	"slices"
	"testing"

	"orbit/internal/tensor"
)

// layer is a module whose gradients the checks below verify: Backward
// follows Forward, accumulates the parameter gradients and returns the
// input gradient.
type layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// checkInputGrad verifies Backward's input gradient against central
// differences of the scalar loss L = Σ (Forward(x) ⊙ g).
func checkInputGrad(t *testing.T, layer layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(999)
	y := layer.Forward(x)
	g := tensor.Randn(rng, 1, y.Shape()...)
	ZeroGrads(layer.Params())
	dx := layer.Backward(g)
	if !dx.SameShape(x) {
		t.Fatalf("input grad shape %v, want %v", dx.Shape(), x.Shape())
	}
	const eps = 1e-2
	// Sample a subset of coordinates for speed.
	n := x.Len()
	step := n/24 + 1
	for i := 0; i < n; i += step {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := tensor.Dot(layer.Forward(x), g)
		x.Data()[i] = orig - eps
		lm := tensor.Dot(layer.Forward(x), g)
		x.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		got := float64(dx.Data()[i])
		if math.Abs(num-got) > tol*(1+math.Abs(num)) {
			t.Fatalf("input grad[%d]: numerical %v vs analytic %v", i, num, got)
		}
	}
	layer.Forward(x) // restore caches for any follow-up use
}

// checkParamGrads verifies accumulated parameter gradients against
// central differences, sampling a few coordinates per parameter.
func checkParamGrads(t *testing.T, layer layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(998)
	y := layer.Forward(x)
	g := tensor.Randn(rng, 1, y.Shape()...)
	ZeroGrads(layer.Params())
	layer.Backward(g)
	const eps = 1e-2
	for _, p := range layer.Params() {
		n := p.W.Len()
		step := n/8 + 1
		for i := 0; i < n; i += step {
			orig := p.W.Data()[i]
			// Raw Data() writes must Bump so version-keyed kernel
			// caches (the linear layer's weight transpose) refresh.
			p.W.Data()[i] = orig + eps
			p.W.Bump()
			lp := tensor.Dot(layer.Forward(x), g)
			p.W.Data()[i] = orig - eps
			p.W.Bump()
			lm := tensor.Dot(layer.Forward(x), g)
			p.W.Data()[i] = orig
			p.W.Bump()
			num := (lp - lm) / (2 * eps)
			got := float64(p.Grad.Data()[i])
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: numerical %v vs analytic %v", p.Name, i, num, got)
			}
		}
	}
}

func TestLinearForwardKnown(t *testing.T) {
	l := NewLinearFromWeights("t",
		tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3),
		tensor.FromSlice([]float32{1, 1, 1}, 3))
	x := tensor.FromSlice([]float32{1, 2}, 1, 2)
	y := l.Forward(x)
	want := []float32{10, 13, 16} // [1*1+2*4, 1*2+2*5, 1*3+2*6] + 1
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("Linear forward[%d] = %v, want %v", i, y.Data()[i], w)
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("t", 5, 4, true, rng)
	x := tensor.Randn(rng, 1, 3, 5)
	checkInputGrad(t, l, x, 1e-2)
	checkParamGrads(t, l, x, 1e-2)
}

func TestLinearNoBias(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear("t", 4, 4, false, rng)
	if len(l.Params()) != 1 {
		t.Fatalf("no-bias linear has %d params", len(l.Params()))
	}
	x := tensor.Randn(rng, 1, 2, 4)
	checkInputGrad(t, l, x, 1e-2)
}

func TestLinearGradAccumulates(t *testing.T) {
	rng := tensor.NewRNG(3)
	l := NewLinear("t", 3, 3, true, rng)
	x := tensor.Randn(rng, 1, 2, 3)
	g := tensor.Ones(2, 3)
	l.Forward(x)
	l.Backward(g)
	first := l.Weight.Grad.Clone()
	l.Forward(x)
	l.Backward(g)
	want := first.Clone()
	want.ScaleInPlace(2)
	if !tensor.AllClose(l.Weight.Grad, want, 1e-5, 1e-6) {
		t.Error("gradients should accumulate across Backward calls")
	}
}

func TestLayerNormForwardStats(t *testing.T) {
	rng := tensor.NewRNG(4)
	ln := NewLayerNorm("t", 16)
	x := tensor.Randn(rng, 3, 4, 16)
	y := ln.Forward(x)
	for r := 0; r < 4; r++ {
		row := y.Row(r)
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= 16
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("row %d mean %v", r, mean)
		}
		var variance float64
		for _, v := range row {
			variance += (float64(v) - mean) * (float64(v) - mean)
		}
		variance /= 16
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("row %d variance %v", r, variance)
		}
	}
}

func TestLayerNormGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	ln := NewLayerNorm("t", 8)
	// Non-trivial gamma/beta so their gradients are exercised.
	for i := range ln.Gamma.W.Data() {
		ln.Gamma.W.Data()[i] = 1 + 0.1*float32(i%3)
	}
	x := tensor.Randn(rng, 2, 3, 8)
	checkInputGrad(t, ln, x, 2e-2)
	checkParamGrads(t, ln, x, 2e-2)
}

func TestAttentionShapesAndGradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	a := NewMultiHeadAttention("t", 8, 2, false, rng)
	x := tensor.Randn(rng, 1, 5, 8)
	y := a.Forward(x)
	if y.Dim(0) != 5 || y.Dim(1) != 8 {
		t.Fatalf("attention output shape %v", y.Shape())
	}
	checkInputGrad(t, a, x, 3e-2)
	checkParamGrads(t, a, x, 3e-2)
}

func TestAttentionQKNormGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	a := NewMultiHeadAttention("t", 8, 2, true, rng)
	x := tensor.Randn(rng, 1, 4, 8)
	checkInputGrad(t, a, x, 3e-2)
	checkParamGrads(t, a, x, 3e-2)
}

func TestQKNormContainsLogits(t *testing.T) {
	// The ORBIT stabilization: with large weights, raw attention
	// logits explode; QK layer-norm contains them. This reproduces the
	// motivation from ViT-22B cited in Sec. III-B.
	rng := tensor.NewRNG(8)
	big := NewMultiHeadAttention("big", 16, 2, false, rng)
	rng2 := tensor.NewRNG(8)
	normed := NewMultiHeadAttention("n", 16, 2, true, rng2)
	// Inflate projection weights to simulate logit growth during
	// training of a large model.
	for _, a := range []*MultiHeadAttention{big, normed} {
		a.WQ.Weight.W.ScaleInPlace(25)
		a.WK.Weight.W.ScaleInPlace(25)
	}
	x := tensor.Randn(tensor.NewRNG(9), 1, 6, 16)
	big.Forward(x)
	normed.Forward(x)
	rawLogit := big.MaxAttentionLogit()
	containedLogit := normed.MaxAttentionLogit()
	if containedLogit >= rawLogit/4 {
		t.Errorf("QK-norm should contain logits: raw %v vs normed %v", rawLogit, containedLogit)
	}
}

func TestMLPGradients(t *testing.T) {
	rng := tensor.NewRNG(10)
	m := NewMLP("t", 6, 12, rng)
	x := tensor.Randn(rng, 1, 4, 6)
	checkInputGrad(t, m, x, 2e-2)
	checkParamGrads(t, m, x, 2e-2)
}

func TestTransformerBlockGradients(t *testing.T) {
	rng := tensor.NewRNG(11)
	b := NewTransformerBlock("t", 8, 2, true, rng)
	x := tensor.Randn(rng, 1, 4, 8)
	checkInputGrad(t, b, x, 5e-2)
}

func TestTransformerBlockPreservesShape(t *testing.T) {
	rng := tensor.NewRNG(12)
	b := NewTransformerBlock("t", 16, 4, false, rng)
	x := tensor.Randn(rng, 1, 10, 16)
	y := b.Forward(x)
	if !y.SameShape(x) {
		t.Fatalf("block changed shape %v -> %v", x.Shape(), y.Shape())
	}
}

// A twin shares its block's parameters and keeps caches of its own:
// two micro-batches interleaved over a block and its twin (forward 0,
// forward 1, backward 0, backward 1) give the bits of one block running
// them one after the other, gradients included. A module field Twin
// failed to carry over would compute set 1 differently from set 0.
// A tensor-parallel shard is this type, so the same holds for it.
func TestTransformerBlockTwinMatchesBlock(t *testing.T) {
	bits := func(ts ...*tensor.Tensor) []uint32 {
		var out []uint32
		for _, t := range ts {
			for _, v := range t.Data() {
				out = append(out, math.Float32bits(v))
			}
		}
		return out
	}
	for _, qkNorm := range []bool{false, true} {
		rng := tensor.NewRNG(42)
		xs := [2]*tensor.Tensor{tensor.Randn(rng, 1, 6, 8), tensor.Randn(rng, 1, 6, 8)}
		dys := [2]*tensor.Tensor{tensor.Randn(rng, 1, 6, 8), tensor.Randn(rng, 1, 6, 8)}
		// run returns the outputs, input gradients and accumulated
		// parameter gradients, in bits.
		run := func(twin bool) []uint32 {
			b := NewTransformerBlock("ref", 8, 2, qkNorm, tensor.NewRNG(41))
			var ys, dxs [2]*tensor.Tensor
			if twin {
				tw := b.Twin()
				if !slices.Equal(tw.Params(), b.Params()) {
					t.Errorf("qkNorm=%v: twin does not share the block's params", qkNorm)
				}
				ys[0] = b.Forward(xs[0]).Clone()
				ys[1] = tw.Forward(xs[1]).Clone()
				dxs[0] = b.Backward(dys[0]).Clone()
				dxs[1] = tw.Backward(dys[1]).Clone()
			} else {
				for i := range xs {
					ys[i] = b.Forward(xs[i]).Clone()
					dxs[i] = b.Backward(dys[i]).Clone()
				}
			}
			out := bits(ys[0], ys[1], dxs[0], dxs[1])
			for _, p := range b.Params() {
				out = append(out, bits(p.Grad)...)
			}
			return out
		}
		if !slices.Equal(run(true), run(false)) {
			t.Errorf("qkNorm=%v: block + twin differ from one block in bits", qkNorm)
		}
	}
}

func TestPatchEmbedShapes(t *testing.T) {
	rng := tensor.NewRNG(13)
	pe := NewPatchEmbed("t", 3, 8, 16, 4, 10, rng)
	if pe.Tokens != 8 {
		t.Fatalf("Tokens = %d, want 8", pe.Tokens)
	}
	x := tensor.Randn(rng, 1, 3, 8, 16)
	y := pe.Forward(x)
	if y.Dim(0) != 3 || y.Dim(1) != 8 || y.Dim(2) != 10 {
		t.Fatalf("PatchEmbed output %v", y.Shape())
	}
}

func TestPatchEmbedGradients(t *testing.T) {
	rng := tensor.NewRNG(14)
	pe := NewPatchEmbed("t", 2, 4, 4, 2, 6, rng)
	x := tensor.Randn(rng, 1, 2, 4, 4)
	checkInputGrad(t, pe, x, 2e-2)
	checkParamGrads(t, pe, x, 2e-2)
}

func TestPatchExtractScatterAdjoint(t *testing.T) {
	// scatterPatches must be the exact inverse of extractPatches.
	rng := tensor.NewRNG(15)
	pe := NewPatchEmbed("t", 1, 6, 8, 2, 4, rng)
	img := tensor.Randn(rng, 1, 6, 8)
	patches := tensor.New(pe.Tokens, 2*2)
	ExtractPatches(patches.Data(), img.Data(), 6, 8, 2)
	back := make([]float32, 48)
	pe.scatterPatches(patches, back)
	for i, v := range img.Data() {
		if back[i] != v {
			t.Fatalf("scatter(extract) mismatch at %d", i)
		}
	}
}

func TestPredictionHeadRoundTripShapes(t *testing.T) {
	rng := tensor.NewRNG(16)
	h := NewPredictionHead("t", 3, 8, 8, 4, 12, rng)
	x := tensor.Randn(rng, 1, 4, 12)
	y := h.Forward(x)
	if y.Dim(0) != 3 || y.Dim(1) != 8 || y.Dim(2) != 8 {
		t.Fatalf("head output %v", y.Shape())
	}
}

func TestPredictionHeadGradients(t *testing.T) {
	rng := tensor.NewRNG(17)
	h := NewPredictionHead("t", 2, 4, 4, 2, 6, rng)
	x := tensor.Randn(rng, 1, 4, 6)
	checkInputGrad(t, h, x, 2e-2)
	checkParamGrads(t, h, x, 2e-2)
}

func TestPatchifyUnpatchifyAdjoint(t *testing.T) {
	rng := tensor.NewRNG(18)
	h := NewPredictionHead("t", 2, 4, 8, 2, 6, rng)
	tok := tensor.Randn(rng, 1, h.Tokens, 2*2*2)
	field := tensor.New(2, 4, 8)
	Unpatchify(field.Data(), tok.Data(), 2, 4, 8, 2)
	tok2 := tensor.New(h.Tokens, 2*2*2)
	h.patchify(field, tok2)
	if !tensor.AllClose(tok, tok2, 0, 0) {
		t.Error("patchify(unpatchify) != identity")
	}
}

func TestVariableAggregationShapes(t *testing.T) {
	rng := tensor.NewRNG(19)
	va := NewVariableAggregation("t", 5, 8, rng)
	x := tensor.Randn(rng, 1, 5, 6, 8)
	y := va.Forward(x)
	if y.Dim(0) != 6 || y.Dim(1) != 8 {
		t.Fatalf("aggregation output %v", y.Shape())
	}
	// Attention weights are a proper distribution over channels.
	alpha := va.AttentionWeights()
	for ti := 0; ti < 6; ti++ {
		var s float64
		for ci := 0; ci < 5; ci++ {
			s += float64(alpha.At(ti, ci))
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("token %d attention sums to %v", ti, s)
		}
	}
}

func TestVariableAggregationGradients(t *testing.T) {
	rng := tensor.NewRNG(20)
	va := NewVariableAggregation("t", 3, 6, rng)
	x := tensor.Randn(rng, 1, 3, 4, 6)
	checkInputGrad(t, va, x, 3e-2)
	checkParamGrads(t, va, x, 3e-2)
}

func TestPositionalEmbeddingGradients(t *testing.T) {
	rng := tensor.NewRNG(21)
	p := NewPositionalEmbedding("t", 5, 6, rng)
	x := tensor.Randn(rng, 1, 5, 6)
	checkInputGrad(t, p, x, 1e-2)
	checkParamGrads(t, p, x, 1e-2)
}

func TestLeadTimeEmbeddingDistinguishesLeads(t *testing.T) {
	rng := tensor.NewRNG(22)
	l := NewLeadTimeEmbedding("t", 8, rng)
	x := tensor.New(3, 8)
	y1 := l.ForwardWithLead(x, 24).Clone() // the result is valid until the next call
	y2 := l.ForwardWithLead(x, 720)
	if tensor.AllClose(y1, y2, 1e-6, 1e-6) {
		t.Error("different lead times should produce different embeddings")
	}
	// All tokens receive the same offset.
	for c := 0; c < 8; c++ {
		if y1.At(0, c) != y1.At(2, c) {
			t.Error("lead-time offset should be uniform across tokens")
		}
	}
}

func TestLeadTimeEmbeddingGradients(t *testing.T) {
	rng := tensor.NewRNG(23)
	l := NewLeadTimeEmbedding("t", 6, rng)
	x := tensor.Randn(rng, 1, 4, 6)
	g := tensor.Randn(rng, 1, 4, 6)
	l.ForwardWithLead(x, 48)
	ZeroGrads(l.Params())
	l.Backward(g)
	// Projection weight grad: numerical check on a few coords.
	const eps = 1e-2
	p := l.Proj.Weight
	for i := 0; i < p.W.Len(); i += p.W.Len()/6 + 1 {
		orig := p.W.Data()[i]
		p.W.Data()[i] = orig + eps
		p.W.Bump()
		lp := tensor.Dot(l.ForwardWithLead(x, 48), g)
		p.W.Data()[i] = orig - eps
		p.W.Bump()
		lm := tensor.Dot(l.ForwardWithLead(x, 48), g)
		p.W.Data()[i] = orig
		p.W.Bump()
		num := (lp - lm) / (2 * eps)
		got := float64(p.Grad.Data()[i])
		if math.Abs(num-got) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("lead proj grad[%d]: %v vs %v", i, num, got)
		}
	}
}

func TestCountParamsAndGradNorm(t *testing.T) {
	rng := tensor.NewRNG(24)
	l := NewLinear("t", 3, 4, true, rng)
	if n := CountParams(l.Params()); n != 16 {
		t.Errorf("CountParams = %d, want 16", n)
	}
	l.Weight.Grad.Fill(3)
	l.Bias.Grad.Fill(4)
	want := math.Sqrt(12*9 + 4*16)
	if got := GlobalGradNorm(l.Params()); math.Abs(got-want) > 1e-6 {
		t.Errorf("GlobalGradNorm = %v, want %v", got, want)
	}
}
