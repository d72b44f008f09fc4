package train

import (
	"fmt"
	"math"
	"testing"

	"orbit/internal/core"
)

// TestGradNormIsLayoutIndependent: the grad norm OnStep sees is a
// property of the model and the global batch, not of the layout. At
// step 0 every layout below holds the same gradient, so their norms
// agree to 1e-6 relative. Each TP rank holds the layer norms (QK-norm's
// included) whole; counting them on every TP rank read TP2 3.6 % and
// TP4 10.4 % high on this model.
func TestGradNormIsLayoutIndependent(t *testing.T) {
	norm := func(layout core.Layout) float64 {
		var got float64
		cfg := ElasticConfig{
			Layout: layout, Dim: 64, Heads: 4, Layers: 2, Tokens: 16,
			GlobalBatch: 8, LR: 1e-3, MinLR: 1e-4, TotalSteps: 1, Seed: 3,
			Opts:  core.DefaultOptions(),
			Hooks: &Hooks{OnStep: func(_ int, _, gradNorm float64) error { got = gradNorm; return nil }},
		}
		if _, err := RunElastic(cfg, nil); err != nil {
			t.Fatal(err)
		}
		return got
	}
	ref := norm(core.Layout{TP: 1, FSDP: 1, DDP: 1})
	if !(ref > 0) {
		t.Fatalf("TP1 grad norm %v, want a positive value", ref)
	}
	for _, l := range []core.Layout{
		{TP: 2, FSDP: 1, DDP: 1}, {TP: 4, FSDP: 1, DDP: 1}, {TP: 1, FSDP: 2, DDP: 1},
		{TP: 2, FSDP: 2, DDP: 1}, {TP: 1, FSDP: 1, DDP: 2},
	} {
		label := fmt.Sprintf("TP%d×FSDP%d×DDP%d", l.TP, l.FSDP, l.DDP)
		got := norm(l)
		t.Logf("%s: %.9g (TP1 %.9g)", label, got, ref)
		if math.Abs(got-ref) > 1e-6*ref {
			t.Errorf("%s: grad norm %.9g, TP1 %.9g (relative %.3g)", label, got, ref, math.Abs(got-ref)/ref)
		}
	}
}
