package train

import (
	"testing"

	"orbit/internal/core"
	"orbit/internal/optim"
	"orbit/internal/pp"
	"orbit/internal/tensor"
)

// BenchmarkElasticStep times one training step of the benchmark's
// train shape (Dim 64, 4 heads, 4 layers, 32 tokens, a global batch of
// 8, devices at ComputeScale 1e-3, layer wrapping and activation
// checkpointing): every rank's micro-batches forward and backward, the
// grad norm an OnStep hook asks for, then AdamW. One worker, and
// TP2×PP2×FSDP2 on eight simulated GPUs.
func BenchmarkElasticStep(b *testing.B) {
	for _, l := range []pp.Layout{{TP: 1, PP: 1, FSDP: 1, DDP: 1}, {TP: 2, PP: 2, FSDP: 2, DDP: 1}} {
		b.Run(l.String(), func(b *testing.B) {
			j := &elasticJob{
				cfg: ElasticConfig{
					Layout: l.Inner(), PP: l.PP, ComputeScale: 1e-3,
					Dim: 64, Heads: 4, Layers: 4, Tokens: 32, GlobalBatch: 8, Seed: 1,
					Opts:  core.Options{LayerWrapping: true, ActivationCheckpoint: true},
					Hooks: &Hooks{OnStep: func(int, float64, float64) error { return nil }},
				},
				layout: l, nodes: 1, gpn: 8,
				sched:   optim.CosineSchedule{BaseLR: 1e-2, WarmupSteps: 10, TotalSteps: 1000},
				dataRNG: tensor.NewRNG(2),
			}
			if err := j.build(false); err != nil {
				b.Fatal(err)
			}
			step := func() {
				if _, err := j.runStep(); err != nil {
					b.Fatal(err)
				}
				j.step++
			}
			step() // warm module scratch and the pipeline's step scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
