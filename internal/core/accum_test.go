package core

import (
	"fmt"
	"math"
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/nn"
	"orbit/internal/tensor"
)

// TestStepGradientIsSumOfMicroGradients pins the step's gradient
// accumulation: after one ZeroGrad and three Forward/Backward pairs the
// chunk gradients must equal, bit for bit, the sequential host sum
// 0 + g₁ + g₂ + g₃ of what a fresh twin set of engines holds after
// each pair on its own. It covers both paths:
// the flat gradient vector as the step's sum (one rank; TP2 with
// QK-norm off) and the per-micro-batch reduction added into a chunk
// accumulator (FSDP2; DDP2 with and without buckets; TP2 with QK-norm
// on, whose backward all-reduces the QK-norm gradients; TP2×FSDP2 with
// QK-norm on). On that path the backward stores each micro-batch's
// gradient over the last one and the reduce-scatter adds into the
// chunk, so a layer that adds in store mode, or a reduce-scatter that
// stores, fails here.
func TestStepGradientIsSumOfMicroGradients(t *testing.T) {
	const micros = 3
	for _, tc := range []struct {
		layout   Layout
		qk       bool
		bucket   int
		perMicro bool
	}{
		{Layout{TP: 1, FSDP: 1, DDP: 1}, true, 0, false},
		{Layout{TP: 2, FSDP: 1, DDP: 1}, false, 0, false},
		{Layout{TP: 1, FSDP: 2, DDP: 1}, true, 0, true},
		{Layout{TP: 1, FSDP: 1, DDP: 2}, true, 0, true},
		{Layout{TP: 1, FSDP: 1, DDP: 2}, true, 256, true},
		{Layout{TP: 2, FSDP: 1, DDP: 1}, true, 0, true},
		{Layout{TP: 2, FSDP: 2, DDP: 1}, true, 0, true},
	} {
		label := fmt.Sprintf("TP%d×FSDP%d×DDP%d qk=%v bucket=%d", tc.layout.TP, tc.layout.FSDP, tc.layout.DDP, tc.qk, tc.bucket)
		opts := DefaultOptions()
		opts.DDPBucketBytes = tc.bucket
		dataRanks := tc.layout.FSDP * tc.layout.DDP
		xs, targets := testBatch(41, dataRanks*micros)
		pair := func(e *Engine, mu int) {
			c := e.Coord
			i := (c.D*tc.layout.FSDP+c.F)*micros + mu
			y, err := e.Forward(xs[i])
			if err != nil {
				panic(err)
			}
			_, g := mseLoss(y, targets[i])
			if _, err := e.Backward(g); err != nil {
				panic(err)
			}
		}

		step := accumEngines(t, tc.layout, tc.qk, opts)
		if step[0].perMicro != tc.perMicro {
			t.Fatalf("%s: per-micro path %v, want %v", label, step[0].perMicro, tc.perMicro)
		}
		runSPMD(len(step), func(r int) {
			step[r].ZeroGrad()
			for mu := 0; mu < micros; mu++ {
				pair(step[r], mu)
			}
		})

		// Each pair runs on a fresh twin set, so nothing one pair leaves
		// in an engine (a flat gradient, a slot) reaches the next.
		sums := make([][][]float32, len(step))
		for r, e := range step {
			for _, c := range e.Chunks() {
				sums[r] = append(sums[r], make([]float32, c.Grad.Len()))
			}
		}
		for mu := 0; mu < micros; mu++ {
			twin := accumEngines(t, tc.layout, tc.qk, opts)
			runSPMD(len(twin), func(r int) {
				twin[r].ZeroGrad()
				pair(twin[r], mu)
				for b, c := range twin[r].Chunks() {
					for i, v := range c.Grad.Data() {
						sums[r][b][i] += v
					}
				}
			})
		}

		for r, e := range step {
			for b, c := range e.Chunks() {
				for i, v := range c.Grad.Data() {
					if want := sums[r][b][i]; math.Float32bits(v) != math.Float32bits(want) {
						t.Fatalf("%s: rank %d block %d grad[%d] = %v (%#08x), micro-batch sum %v (%#08x)",
							label, r, b, i, v, math.Float32bits(v), want, math.Float32bits(want))
					}
				}
			}
		}
	}
}

// accumEngines builds one engine per rank of layout over a testLayers
// stack of testDim blocks, QK-norm on or off.
func accumEngines(t *testing.T, layout Layout, qk bool, opts Options) []*Engine {
	t.Helper()
	m := cluster.NewMachine(cluster.Frontier(), 1, 0)
	groups, err := BuildGroups(layout, m)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, layout.Ranks())
	for r := range engines {
		rng := tensor.NewRNG(40)
		ref := make([]*nn.TransformerBlock, testLayers)
		for i := range ref {
			ref[i] = nn.NewTransformerBlock(fmt.Sprintf("acc%d", i), testDim, testHeads, qk, rng)
		}
		if engines[r], err = NewEngine(r, layout, groups[r], ref, opts, m.Devices[r]); err != nil {
			t.Fatal(err)
		}
	}
	return engines
}
