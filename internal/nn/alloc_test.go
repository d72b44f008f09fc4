package nn

import (
	"testing"

	"orbit/internal/tensor"
)

// TestTransformerStepZeroAllocs asserts the tentpole property of the
// workspace-pooled kernels: after warmup, a full transformer-block
// forward+backward step performs zero heap allocations.
func TestTransformerStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only valid in normal builds")
	}
	rng := tensor.NewRNG(40)
	blk := NewTransformerBlock("z", 16, 2, true, rng)
	x := tensor.Randn(rng, 1, 8, 16)
	g := tensor.Randn(rng, 1, 8, 16)
	// Warm up module scratch buffers and pack pools.
	for i := 0; i < 3; i++ {
		blk.Forward(x)
		blk.Backward(g)
	}
	allocs := testing.AllocsPerRun(10, func() {
		blk.Forward(x)
		blk.Backward(g)
	})
	if allocs != 0 {
		t.Errorf("steady-state transformer fwd+bwd allocates %.1f objects per step, want 0", allocs)
	}
}

// TestAttentionForwardZeroAllocs pins the fused attention forward pass
// (including QK-norm and the cached max-logit) to zero steady-state
// allocations.
func TestAttentionForwardZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only valid in normal builds")
	}
	rng := tensor.NewRNG(41)
	a := NewMultiHeadAttention("z", 16, 4, true, rng)
	x := tensor.Randn(rng, 1, 8, 16)
	for i := 0; i < 3; i++ {
		a.Forward(x)
	}
	allocs := testing.AllocsPerRun(10, func() {
		a.Forward(x)
		_ = a.MaxAttentionLogit()
	})
	if allocs != 0 {
		t.Errorf("steady-state attention forward allocates %.1f objects, want 0", allocs)
	}
}

// TestAggregationStepZeroAllocs holds the variable aggregation to the
// same rule as a block: after warmup its forward + backward allocates
// nothing — the input gradient, the mix and the key live in
// module-owned buffers.
func TestAggregationStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only valid in normal builds")
	}
	rng := tensor.NewRNG(43)
	const channels, tokens, dim = 3, 16, 16
	agg := NewVariableAggregation("z", channels, dim, rng)
	x := tensor.Randn(rng, 1, channels, tokens, dim)
	g := tensor.Randn(rng, 1, tokens, dim)
	step := func() {
		agg.Forward(x)
		agg.Backward(g)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("steady-state aggregation fwd+bwd allocates %.1f objects per step, want 0", allocs)
	}
}

// TestStemForwardZeroAllocs pins the model stem — per-channel patch
// embedding, variable aggregation, positional and lead-time embedding —
// to the buffer-ownership convention the blocks follow: intermediates,
// results and gradients live in module-owned buffers, so a steady-state
// forward and backward allocates nothing.
func TestStemForwardZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only valid in normal builds")
	}
	rng := tensor.NewRNG(42)
	const channels, height, width, patch, dim = 3, 8, 8, 2, 16
	pe := NewPatchEmbed("z", channels, height, width, patch, dim, rng)
	agg := NewVariableAggregation("z", channels, dim, rng)
	pos := NewPositionalEmbedding("z", pe.Tokens, dim, rng)
	lead := NewLeadTimeEmbedding("z", dim, rng)
	x := tensor.Randn(rng, 1, channels, height, width)
	g := tensor.Randn(rng, 1, pe.Tokens, dim)
	stem := func() {
		lead.ForwardWithLead(pos.Forward(agg.Forward(pe.Forward(x))), 24)
		pe.Backward(agg.Backward(pos.Backward(lead.Backward(g))))
	}
	for i := 0; i < 3; i++ {
		stem()
	}
	if allocs := testing.AllocsPerRun(10, stem); allocs != 0 {
		t.Errorf("steady-state stem forward and backward allocates %.1f objects, want 0", allocs)
	}
}
