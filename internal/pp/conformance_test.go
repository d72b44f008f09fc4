package pp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/nn"
	"orbit/internal/tensor"
)

// The schedule-conformance layer: every pipeline schedule must
// produce losses and per-parameter gradients bit-identical to the
// single-stage 3D reference before any layout is allowed to use it.
// 1F1B ordering bugs corrupt gradients silently — these tests are the
// gate that makes that failure mode loud.

const (
	confDim    = 8
	confHeads  = 2
	confTokens = 6
)

func confStack(layers int, qk bool) []*nn.TransformerBlock {
	rng := tensor.NewRNG(1007)
	ref := make([]*nn.TransformerBlock, layers)
	for i := range ref {
		ref[i] = nn.NewTransformerBlock(fmt.Sprintf("pp%d", i), confDim, confHeads, qk, rng)
	}
	return ref
}

// sampleX is the deterministic per-(data rank, micro) input.
func sampleX(d, mu int) *tensor.Tensor {
	rng := tensor.NewRNG((uint64(d)*131 + uint64(mu) + 1) * 0x9E3779B97F4A7C15)
	return tensor.Randn(rng, 1, confTokens, confDim)
}

// lossGrad is the shared data plane: loss |y|²/n, gradient 2y/n —
// a pure function of the stage output, so the pipeline's last stage
// computes exactly what the reference does.
func lossGrad(y *tensor.Tensor) (float64, *tensor.Tensor) {
	n := y.Len()
	data := y.Data()
	var s float64
	g := make([]float32, n)
	for i, v := range data {
		s += float64(v) * float64(v)
		g[i] = 2 * v / float32(n)
	}
	return s / float64(n), tensor.FromSlice(g, confTokens, confDim)
}

// stepResult collects one run's observables: per-(F,D) micro-summed
// losses and per-(T,F,global block) chunk gradients, the engines' sums
// over the step's micro-batches.
type stepResult struct {
	loss  map[[2]int]float64
	grads map[[3]int][]float32
}

// runReference executes one step of the 3D engine (the single-stage
// reference): per rank, a ZeroGrad, then Forward/Backward per micro in
// order, the engine summing the gradients.
func runReference(t *testing.T, l3 core.Layout, layers, micros int, qk bool, opts core.Options) stepResult {
	t.Helper()
	m := cluster.NewMachine(cluster.Frontier(), (l3.Ranks()+7)/8, 0)
	groups, err := core.BuildGroups(l3, m)
	if err != nil {
		t.Fatal(err)
	}
	ref := confStack(layers, qk)
	engines := make([]*core.Engine, l3.Ranks())
	for r := range engines {
		e, err := core.NewEngine(r, l3, groups[r], ref, opts, m.Devices[r])
		if err != nil {
			t.Fatal(err)
		}
		engines[r] = e
	}
	res := stepResult{loss: map[[2]int]float64{}, grads: map[[3]int][]float32{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(engines))
	for r := range engines {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			e := engines[rank]
			d := e.Coord.D*l3.FSDP + e.Coord.F
			e.ZeroGrad()
			var lsum float64
			for m := 0; m < micros; m++ {
				y, err := e.Forward(sampleX(d, m))
				if err != nil {
					errs[rank] = err
					return
				}
				loss, g := lossGrad(y)
				lsum += loss
				if _, err := e.Backward(g); err != nil {
					errs[rank] = err
					return
				}
			}
			if e.Coord.D == 0 {
				mu.Lock()
				if e.Coord.T == 0 {
					res.loss[[2]int{e.Coord.F, 0}] = lsum
				}
				for b, c := range e.Chunks() {
					res.grads[[3]int{e.Coord.T, e.Coord.F, b}] = c.Grad.Data()
				}
				mu.Unlock()
			} else if e.Coord.T == 0 {
				mu.Lock()
				res.loss[[2]int{e.Coord.F, e.Coord.D}] = lsum
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// runPipeline executes one 1F1B step of a 4D layout and collects the
// same observables, mapping each stage engine's blocks back to global
// block indices.
func runPipeline(t *testing.T, l Layout, layers, micros int, qk bool, opts core.Options) (stepResult, *cluster.Machine) {
	t.Helper()
	m := cluster.NewMachine(cluster.Frontier(), (l.Ranks()+7)/8, 0)
	stages, err := UniformPartition(layers, l.PP)
	if err != nil {
		t.Fatal(err)
	}
	engines, err := Build(l, stages, m, confStack(layers, qk), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := stepResult{loss: map[[2]int]float64{}, grads: map[[3]int][]float32{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(engines))
	for r := range engines {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			e := engines[rank]
			d := e.Coord.D*l.FSDP + e.Coord.F
			loss, err := e.RunStep(micros, StepIO{
				Shape: []int{confTokens, confDim},
				Input: func(mu int) *tensor.Tensor { return sampleX(d, mu) },
				LossGrad: func(mu int, y *tensor.Tensor) (float64, *tensor.Tensor) {
					return lossGrad(y)
				},
			})
			if err != nil {
				errs[rank] = err
				return
			}
			mu.Lock()
			if e.Coord.T == 0 && e.Coord.P == l.PP-1 {
				res.loss[[2]int{e.Coord.F, e.Coord.D}] = loss
			}
			if e.Coord.D == 0 {
				start := stages[e.Coord.P][0]
				for b, c := range e.Stage.Chunks() {
					res.grads[[3]int{e.Coord.T, e.Coord.F, start + b}] = c.Grad.Data()
				}
			}
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return res, m
}

// assertBitIdentical compares losses and every parameter gradient
// exactly — no tolerance.
func assertBitIdentical(t *testing.T, label string, want, got stepResult) {
	t.Helper()
	if len(got.loss) != len(want.loss) {
		t.Fatalf("%s: %d loss entries, reference has %d", label, len(got.loss), len(want.loss))
	}
	for k, w := range want.loss {
		g, ok := got.loss[k]
		if !ok {
			t.Fatalf("%s: no loss for data rank %v", label, k)
		}
		if g != w {
			t.Fatalf("%s: loss at %v = %v, reference %v (not bit-identical)", label, k, g, w)
		}
	}
	if len(got.grads) != len(want.grads) {
		t.Fatalf("%s: %d grad entries, reference has %d", label, len(got.grads), len(want.grads))
	}
	for k, w := range want.grads {
		g, ok := got.grads[k]
		if !ok {
			t.Fatalf("%s: no grads for (T,F,block) %v", label, k)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: grad length at %v = %d, reference %d", label, k, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: grad at %v[%d] = %v, reference %v (not bit-identical)", label, k, i, g[i], w[i])
			}
		}
	}
}

func confOpts(depth int) core.Options {
	return core.Options{
		LayerWrapping:        true,
		ActivationCheckpoint: true,
		PrefetchDepth:        depth,
	}
}

// TestScheduleConformance1F1B is the property test over random
// (stages, micro-batches, depth, inner grid) configurations: 1F1B
// must be bit-identical to the single-stage reference. With up to six
// micro-batches over up to three stages, stage s's min(S − s, micros)
// activation sets rotate whenever micros > S − s, so a backward that
// ran on another micro-batch's set fails here.
func TestScheduleConformance1F1B(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	rotations := 0
	for it := 0; it < 24; it++ {
		S := 1 + r.Intn(3)
		tp := 1 << r.Intn(2)
		fsdp := 1 << r.Intn(2)
		ddp := 1 << r.Intn(2)
		layers := S + r.Intn(4)
		micros := 1 + r.Intn(6)
		if S > 1 && micros > 2 {
			rotations++
		}
		depth := 1 + r.Intn(2)
		qk := r.Intn(2) == 0
		opts := confOpts(depth)
		if ddp > 1 && r.Intn(2) == 0 {
			opts.DDPBucketBytes = 256
		}
		l := Layout{TP: tp, PP: S, FSDP: fsdp, DDP: ddp}
		label := fmt.Sprintf("iter %d: %s layers=%d micros=%d depth=%d qk=%v", it, l, layers, micros, depth, qk)
		want := runReference(t, l.Inner(), layers, micros, qk, opts)
		got, _ := runPipeline(t, l, layers, micros, qk, opts)
		assertBitIdentical(t, label, want, got)
	}
	if rotations == 0 {
		t.Fatal("no configuration rotated a stage's activation sets")
	}
}

// TestPP1BitIdenticalTo3D pins the no-behavior-change guarantee for
// the unused axis: a PP=1 layout must match the 3D engine not just in
// losses and gradients but in the simulated clock — the identical
// collective sequence runs.
func TestPP1BitIdenticalTo3D(t *testing.T) {
	for _, qk := range []bool{false, true} {
		opts := confOpts(1)
		l := Layout{TP: 2, PP: 1, FSDP: 2, DDP: 1}
		layers, micros := 3, 2

		// Reference clock: measure on a fresh machine.
		m3 := cluster.NewMachine(cluster.Frontier(), 1, 0)
		g3, err := core.BuildGroups(l.Inner(), m3)
		if err != nil {
			t.Fatal(err)
		}
		ref := confStack(layers, qk)
		var wg sync.WaitGroup
		for r := 0; r < l.Inner().Ranks(); r++ {
			e, err := core.NewEngine(r, l.Inner(), g3[r], ref, opts, m3.Devices[r])
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(e *core.Engine) {
				defer wg.Done()
				d := e.Coord.D*l.FSDP + e.Coord.F
				for mu := 0; mu < micros; mu++ {
					y, _ := e.Forward(sampleX(d, mu))
					_, g := lossGrad(y)
					e.Backward(g)
				}
			}(e)
		}
		wg.Wait()

		want := runReference(t, l.Inner(), layers, micros, qk, opts)
		got, mPP := runPipeline(t, l, layers, micros, qk, opts)
		assertBitIdentical(t, fmt.Sprintf("pp1 qk=%v", qk), want, got)
		if mPP.MaxClock() != m3.MaxClock() {
			t.Fatalf("qk=%v: PP=1 clock %v != 3D clock %v (schedule changed for the unused axis)",
				qk, mPP.MaxClock(), m3.MaxClock())
		}
	}
}
