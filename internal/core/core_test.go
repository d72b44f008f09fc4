package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"

	"orbit/internal/cluster"
	"orbit/internal/comm"
	"orbit/internal/nn"
	"orbit/internal/optim"
	"orbit/internal/parallel"
	"orbit/internal/tensor"
)

const (
	testDim    = 8
	testHeads  = 2
	testTokens = 5
	testLayers = 2
)

func buildStack(seed uint64) []*nn.TransformerBlock {
	rng := tensor.NewRNG(seed)
	blocks := make([]*nn.TransformerBlock, testLayers)
	for i := range blocks {
		blocks[i] = nn.NewTransformerBlock(fmt.Sprintf("ref%d", i), testDim, testHeads, true, rng)
	}
	return blocks
}

func stackParams(blocks []*nn.TransformerBlock) []*nn.Param {
	var ps []*nn.Param
	for _, b := range blocks {
		ps = append(ps, b.Params()...)
	}
	return ps
}

func mseLoss(y, target *tensor.Tensor) (float64, *tensor.Tensor) {
	diff := tensor.SubInto(tensor.New(y.Shape()...), y, target)
	loss := tensor.Dot(diff, diff) / float64(y.Len())
	diff.ScaleInPlace(float32(2) / float32(y.Len()))
	return loss, diff
}

// serialStep runs the reference stack over the batch, averaging
// gradients, returning the mean loss.
func serialStep(blocks []*nn.TransformerBlock, xs, targets []*tensor.Tensor) float64 {
	nn.ZeroGrads(stackParams(blocks))
	var total float64
	for i, x := range xs {
		h := x
		for _, b := range blocks {
			h = b.Forward(h)
		}
		loss, grad := mseLoss(h, targets[i])
		total += loss
		grad.ScaleInPlace(float32(1) / float32(len(xs)))
		dy := grad
		for j := len(blocks) - 1; j >= 0; j-- {
			dy = blocks[j].Backward(dy)
		}
	}
	return total / float64(len(xs))
}

func runSPMD(ranks int, body func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(rank)
		}(r)
	}
	wg.Wait()
}

// buildEngines constructs one engine per rank from a common seed.
func buildEngines(t *testing.T, layout Layout, opts Options, seed uint64) ([]*Engine, *cluster.Machine) {
	t.Helper()
	m := cluster.NewMachine(cluster.Frontier(), (layout.Ranks()+7)/8, 0)
	groups, err := BuildGroups(layout, m)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, layout.Ranks())
	for r := range engines {
		e, err := NewEngine(r, layout, groups[r], buildStack(seed), opts, m.Devices[r])
		if err != nil {
			t.Fatal(err)
		}
		engines[r] = e
	}
	return engines, m
}

// --- mapping ---

func TestLayoutRankCoordRoundTrip(t *testing.T) {
	l := Layout{TP: 2, FSDP: 3, DDP: 2}
	seen := map[int]bool{}
	for d := 0; d < l.DDP; d++ {
		for f := 0; f < l.FSDP; f++ {
			for tt := 0; tt < l.TP; tt++ {
				c := Coord{T: tt, F: f, D: d}
				r := l.RankOf(c)
				if seen[r] {
					t.Fatalf("duplicate rank %d", r)
				}
				seen[r] = true
				if got := l.CoordOf(r); got != c {
					t.Fatalf("CoordOf(RankOf(%+v)) = %+v", c, got)
				}
			}
		}
	}
	if len(seen) != l.Ranks() {
		t.Fatalf("%d ranks enumerated, want %d", len(seen), l.Ranks())
	}
}

func TestLayoutValidate(t *testing.T) {
	if (Layout{TP: 0, FSDP: 1, DDP: 1}).Validate() == nil {
		t.Error("zero TP accepted")
	}
	if (Layout{TP: 2, FSDP: 2, DDP: 2}).Validate() != nil {
		t.Error("valid layout rejected")
	}
}

func TestHierarchicalMappingTPWithinNode(t *testing.T) {
	// Paper Fig. 4: TP groups must land on single nodes for the fast
	// Infinity Fabric links; FSDP/DDP groups span nodes.
	l := Layout{TP: 8, FSDP: 2, DDP: 2}
	m := cluster.NewMachine(cluster.Frontier(), 4, 0)
	groups, err := BuildGroups(l, m)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < l.Ranks(); r++ {
		g := groups[r].TP
		devs := make([]*cluster.Device, g.Size())
		for i := range devs {
			devs[i] = g.Device(i)
		}
		if !cluster.SameNode(devs) {
			t.Fatalf("rank %d TP group spans nodes", r)
		}
	}
	// An FSDP group must span nodes in this layout (16 ranks/replica).
	g := groups[0].FSDP
	devs := make([]*cluster.Device, g.Size())
	for i := range devs {
		devs[i] = g.Device(i)
	}
	if cluster.SameNode(devs) {
		t.Error("FSDP group unexpectedly within one node")
	}
}

// TestBuildGroupsWiresEachLine: rank r's group for an axis holds, at
// position i, the rank whose coordinate on that axis is i and whose
// other coordinates are r's, and every rank of one line shares the one
// communicator.
func TestBuildGroupsWiresEachLine(t *testing.T) {
	l := Layout{TP: 2, FSDP: 3, DDP: 2}
	m := cluster.NewMachine(cluster.Frontier(), 2, 0)
	groups, err := BuildGroups(l, m)
	if err != nil {
		t.Fatal(err)
	}
	for r, gs := range groups {
		for axis, g := range []*comm.Group{gs.TP, gs.FSDP, gs.DDP} {
			c := l.CoordOf(r)
			at := [...]*int{&c.T, &c.F, &c.D}[axis]
			if g.Size() != [...]int{l.TP, l.FSDP, l.DDP}[axis] {
				t.Fatalf("rank %d axis %d: group of %d ranks", r, axis, g.Size())
			}
			for i := 0; i < g.Size(); i++ {
				*at = i
				peer := l.RankOf(c)
				if g.Device(i) != m.Devices[peer] {
					t.Errorf("rank %d axis %d: member %d is device %d, want %d", r, axis, i, g.Device(i).ID, peer)
				}
				if peers := [...]*comm.Group{groups[peer].TP, groups[peer].FSDP, groups[peer].DDP}; peers[axis] != g {
					t.Errorf("rank %d axis %d: rank %d holds another communicator", r, axis, peer)
				}
			}
		}
	}
}

func TestBuildGroupsRejectsTooFewDevices(t *testing.T) {
	m := cluster.NewMachine(cluster.Frontier(), 1, 0)
	if _, err := BuildGroups(Layout{TP: 8, FSDP: 2, DDP: 1}, m); err == nil {
		t.Error("expected error for 16 ranks on 8 devices")
	}
}

// --- numerical equivalence (paper Fig. 3 mechanism) ---

// hybridStep runs one step, a ZeroGrad and one forward/backward, on
// every rank. Data: the sample for grid column (d,f) is
// xs[d*FSDP+f]; TP ranks share it.
func hybridStep(engines []*Engine, layout Layout, xs, targets []*tensor.Tensor) []float64 {
	losses := make([]float64, layout.Ranks())
	runSPMD(layout.Ranks(), func(rank int) {
		c := layout.CoordOf(rank)
		sample := c.D*layout.FSDP + c.F
		engines[rank].ZeroGrad()
		y, err := engines[rank].Forward(xs[sample])
		if err != nil {
			panic(err)
		}
		loss, grad := mseLoss(y, targets[sample])
		if _, err := engines[rank].Backward(grad); err != nil {
			panic(err)
		}
		losses[rank] = engines[rank].AverageLoss(loss)
	})
	return losses
}

func testBatch(seed uint64, n int) (xs, targets []*tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	for i := 0; i < n; i++ {
		xs = append(xs, tensor.Randn(rng, 1, testTokens, testDim))
		targets = append(targets, tensor.Randn(rng, 1, testTokens, testDim))
	}
	return xs, targets
}

// verifyChunkGrads checks every rank's chunk gradient against the
// serial reference: chunk f of the flattened TP-shard gradient.
func verifyChunkGrads(t *testing.T, engines []*Engine, layout Layout, serial []*nn.TransformerBlock, tol float64) {
	t.Helper()
	for b := 0; b < testLayers; b++ {
		// Serial shard-by-shard flattened gradients per TP index.
		for tt := 0; tt < layout.TP; tt++ {
			shard := shardGradFlat(serial[b], tt, layout.TP, layout.FSDP)
			chunkLen := len(shard) / layout.FSDP
			for d := 0; d < layout.DDP; d++ {
				for f := 0; f < layout.FSDP; f++ {
					rank := layout.RankOf(Coord{T: tt, F: f, D: d})
					got := engines[rank].Chunks()[b].Grad.Data()
					if len(got) != chunkLen {
						t.Fatalf("chunk length %d vs serial %d", len(got), chunkLen)
					}
					for i := range got {
						want := shard[f*chunkLen+i]
						if math.Abs(float64(got[i]-want)) > tol*(1+math.Abs(float64(want))) {
							t.Fatalf("block %d rank %d (t=%d f=%d d=%d) grad[%d] = %v, want %v",
								b, rank, tt, f, d, i, got[i], want)
						}
					}
				}
			}
		}
	}
}

// shardGradFlat reproduces the engine's parameter layout for TP shard
// tt of a serial block and returns the flattened, padded gradient.
func shardGradFlat(ref *nn.TransformerBlock, tt, tp, fsdp int) []float32 {
	// Build a TP block view of the serial gradients by sharding each
	// gradient tensor exactly as NewTPBlock shards weights.
	var grads []*tensor.Tensor
	grads = append(grads, ref.LN1.Gamma.Grad, ref.LN1.Beta.Grad)
	for _, l := range []*nn.Linear{ref.Attn.WQ, ref.Attn.WK, ref.Attn.WV} {
		grads = append(grads, tensor.ColumnShard(l.Weight.Grad, tt, tp))
		grads = append(grads, biasShard(l.Bias.Grad, tt, tp))
	}
	grads = append(grads, tensor.RowShard(ref.Attn.WO.Weight.Grad, tt, tp))
	if tt == 0 {
		grads = append(grads, ref.Attn.WO.Bias.Grad)
	}
	grads = append(grads, ref.Attn.QNorm.Gamma.Grad, ref.Attn.QNorm.Beta.Grad)
	grads = append(grads, ref.Attn.KNorm.Gamma.Grad, ref.Attn.KNorm.Beta.Grad)
	grads = append(grads, ref.LN2.Gamma.Grad, ref.LN2.Beta.Grad)
	grads = append(grads, tensor.ColumnShard(ref.MLP.FC1.Weight.Grad, tt, tp))
	grads = append(grads, biasShard(ref.MLP.FC1.Bias.Grad, tt, tp))
	grads = append(grads, tensor.RowShard(ref.MLP.FC2.Weight.Grad, tt, tp))
	if tt == 0 {
		grads = append(grads, ref.MLP.FC2.Bias.Grad)
	}
	n := 0
	for _, g := range grads {
		n += g.Len()
	}
	padded := ((n + fsdp - 1) / fsdp) * fsdp
	flat := make([]float32, padded)
	off := 0
	for _, g := range grads {
		copy(flat[off:], g.Data())
		off += g.Len()
	}
	return flat
}

func biasShard(b *tensor.Tensor, k, kTotal int) *tensor.Tensor {
	part := b.Dim(0) / kTotal
	out := tensor.New(part)
	copy(out.Data(), b.Data()[k*part:(k+1)*part])
	return out
}

func TestHybridSTOPMatchesSerialTPxFSDP(t *testing.T) {
	hybrid := Layout{TP: 2, FSDP: 2, DDP: 1}
	for _, tc := range []struct {
		layout Layout
		opts   Options
	}{
		{hybrid, Options{LayerWrapping: true}},
		{hybrid, Options{LayerWrapping: true, ActivationCheckpoint: true}},
		{hybrid, Options{LayerWrapping: false}},
		// The baselines are corners of the same grid: TP=1 is FSDP
		// (vanilla when nothing is enabled), TP=FSDP=1 is DDP.
		{Layout{TP: 1, FSDP: 4, DDP: 1}, Options{}},
		{Layout{TP: 1, FSDP: 4, DDP: 1}, DefaultOptions()},
		{Layout{TP: 1, FSDP: 1, DDP: 4}, Options{}},
		{Layout{TP: 1, FSDP: 1, DDP: 4}, Options{DDPBucketBytes: 256}},
		{Layout{TP: 1, FSDP: 2, DDP: 2}, DefaultOptions()},
	} {
		layout, opts := tc.layout, tc.opts
		engines, _ := buildEngines(t, layout, opts, 77)
		xs, targets := testBatch(78, layout.FSDP*layout.DDP)

		serial := buildStack(77)
		serialLoss := serialStep(serial, xs, targets)

		losses := hybridStep(engines, layout, xs, targets)
		for r, l := range losses {
			if math.Abs(l-serialLoss) > 1e-5*(1+math.Abs(serialLoss)) {
				t.Errorf("%+v opts %+v rank %d loss %v vs serial %v", layout, opts, r, l, serialLoss)
			}
		}
		verifyChunkGrads(t, engines, layout, serial, 1e-3)
	}
}

func TestHybridSTOPMatchesSerialFullGrid(t *testing.T) {
	// Full three-level grid: TP 2 × FSDP 2 × DDP 2 = 8 ranks,
	// global batch of 4 samples.
	layout := Layout{TP: 2, FSDP: 2, DDP: 2}
	engines, _ := buildEngines(t, layout, DefaultOptions(), 91)
	xs, targets := testBatch(92, layout.FSDP*layout.DDP)

	serial := buildStack(91)
	serialLoss := serialStep(serial, xs, targets)

	losses := hybridStep(engines, layout, xs, targets)
	for r, l := range losses {
		if math.Abs(l-serialLoss) > 1e-5*(1+math.Abs(serialLoss)) {
			t.Errorf("rank %d loss %v vs serial %v", r, l, serialLoss)
		}
	}
	verifyChunkGrads(t, engines, layout, serial, 1e-3)
}

// TestHybridSTOPTrainingTrajectoryMatchesSerial runs three AdamW steps
// on TP2×FSDP2 and on the serial stack. Before each update every
// rank's chunk gradient must match the serial one, so an engine that
// carries a step's gradient into the next fails here, not only on a
// loss that AdamW's normalization can hide.
func TestHybridSTOPTrainingTrajectoryMatchesSerial(t *testing.T) {
	layout := Layout{TP: 2, FSDP: 2, DDP: 1}
	engines, _ := buildEngines(t, layout, Options{LayerWrapping: true}, 55)
	serial := buildStack(55)
	serialOpt := optim.NewAdamW(stackParams(serial), 0)
	opts := make([]*optim.AdamW, layout.Ranks())
	for r := range opts {
		opts[r] = optim.NewAdamW(engines[r].Chunks(), 0)
	}
	for step := 0; step < 3; step++ {
		xs, targets := testBatch(uint64(200+step), layout.FSDP)
		serialLoss := serialStep(serial, xs, targets)
		losses := hybridStep(engines, layout, xs, targets)
		verifyChunkGrads(t, engines, layout, serial, 1e-3)
		serialOpt.Step(1e-3)
		runSPMD(layout.Ranks(), func(rank int) { opts[rank].Step(1e-3) })
		for r, l := range losses {
			if math.Abs(l-serialLoss) > 1e-4*(1+math.Abs(serialLoss)) {
				t.Fatalf("step %d rank %d loss %v vs serial %v", step, r, l, serialLoss)
			}
		}
	}
}

func TestDDPReplicasStayConsistent(t *testing.T) {
	// After backward + step, DDP copies of the same (t,f) chunk must
	// be bit-identical — the invariant that makes outer DDP sound.
	layout := Layout{TP: 1, FSDP: 2, DDP: 2}
	engines, _ := buildEngines(t, layout, DefaultOptions(), 66)
	xs, targets := testBatch(67, layout.FSDP*layout.DDP)
	hybridStep(engines, layout, xs, targets)
	for f := 0; f < layout.FSDP; f++ {
		r0 := layout.RankOf(Coord{T: 0, F: f, D: 0})
		r1 := layout.RankOf(Coord{T: 0, F: f, D: 1})
		for b := 0; b < testLayers; b++ {
			g0 := engines[r0].Chunks()[b].Grad
			g1 := engines[r1].Chunks()[b].Grad
			if !tensor.AllClose(g0, g1, 0, 0) {
				t.Fatalf("DDP copies diverge at f=%d block %d", f, b)
			}
		}
	}
}

// --- memory behaviour (paper Figs. 2, 3, 5 mechanisms) ---

func TestHybridSTOPPeakBelowVanillaFSDP(t *testing.T) {
	// The headline memory claim: Hybrid-STOP never gathers the full
	// model, so its peak is below vanilla FSDP's on the same stack and
	// rank count. Vanilla FSDP is the TP=1 slice of the grid with layer
	// wrapping off; the hybrid side runs the same options, so the gap is
	// the 1/TP shard alone.
	opts := DefaultOptions()
	opts.LayerWrapping = false
	xs, targets := testBatch(11, 4)
	peak := func(layout Layout) int64 {
		engines, m := buildEngines(t, layout, opts, 10)
		n := layout.FSDP * layout.DDP
		hybridStep(engines, layout, xs[:n], targets[:n])
		return m.MaxMemPeak()
	}
	fsdpPeak := peak(Layout{TP: 1, FSDP: 4, DDP: 1})
	hybridPeak := peak(Layout{TP: 2, FSDP: 2, DDP: 1})
	if hybridPeak >= fsdpPeak {
		t.Errorf("Hybrid-STOP peak %d should be below vanilla FSDP peak %d", hybridPeak, fsdpPeak)
	}
}

func TestNewEngineOOMOnTinyDevice(t *testing.T) {
	// A device too small for the rank's persistent chunk fails at
	// construction with the cluster's OOM error, not at the first step.
	tiny := cluster.Frontier()
	tiny.MemPerGPU = 1 << 10
	layout := Layout{TP: 1, FSDP: 2, DDP: 1}
	m := cluster.NewMachine(tiny, 1, 0)
	groups, err := BuildGroups(layout, m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewEngine(0, layout, groups[0], buildStack(7), DefaultOptions(), m.Devices[0])
	var oom *cluster.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("NewEngine on a 1 KiB device returned %v, want *cluster.OOMError", err)
	}
}

func TestActivationCheckpointLowersPeak(t *testing.T) {
	layout := Layout{TP: 1, FSDP: 2, DDP: 1}
	withCkpt, mC := buildEngines(t, layout, Options{LayerWrapping: true, ActivationCheckpoint: true}, 12)
	without, mN := buildEngines(t, layout, Options{LayerWrapping: true}, 12)
	xs, targets := testBatch(13, 2)
	hybridStep(withCkpt, layout, xs, targets)
	hybridStep(without, layout, xs, targets)
	if mC.MaxMemPeak() >= mN.MaxMemPeak() {
		t.Errorf("checkpointing peak %d should be below %d", mC.MaxMemPeak(), mN.MaxMemPeak())
	}
}

func TestMixedPrecisionHalvesGatherBytes(t *testing.T) {
	layout := Layout{TP: 1, FSDP: 2, DDP: 1}
	bf, _ := buildEngines(t, layout, Options{LayerWrapping: true, MixedPrecision: true}, 14)
	fp, _ := buildEngines(t, layout, Options{LayerWrapping: true}, 14)
	if bf[0].gatherBytes[0]*2 != fp[0].gatherBytes[0] {
		t.Errorf("bf16 gather bytes %d, fp32 %d", bf[0].gatherBytes[0], fp[0].gatherBytes[0])
	}
}

func TestMoreFSDPShardsLowerPersistentMemory(t *testing.T) {
	// Scaling mechanism behind Fig. 5: the owned chunk shrinks as the
	// FSDP group grows, so bigger machines fit bigger models.
	layout2 := Layout{TP: 1, FSDP: 2, DDP: 1}
	layout4 := Layout{TP: 1, FSDP: 4, DDP: 1}
	e2, _ := buildEngines(t, layout2, DefaultOptions(), 15)
	e4, _ := buildEngines(t, layout4, DefaultOptions(), 15)
	if e4[0].Chunks()[0].W.Len() >= e2[0].Chunks()[0].W.Len() {
		t.Errorf("chunk with FSDP=4 (%d) should be smaller than FSDP=2 (%d)",
			e4[0].Chunks()[0].W.Len(), e2[0].Chunks()[0].W.Len())
	}
}

// TestEngineParamsAreViewsOfOneBuffer pins the flat-parameter layout:
// every weight and gradient of a block is the view at its running
// offset of the block's two flat vectors, the rank's weight chunk is
// the slice [F·n, (F+1)·n) of flatW, and no step — gathers,
// reduce-scatters, the optimizer — re-points a tensor or writes the
// padding tail. The chunk gradient is the same slice of flatG when no
// collective reads a micro-batch's gradient (one rank here), and a
// buffer of n floats of its own, the step's sum, otherwise (TP2×FSDP3,
// whose 476 / 460 floats per shard both pad). The parameter state an
// engine holds on the host is then 2·Σ len(flatW[b]) floats, plus Σ n
// for those step sums: there is no staging copy beside them.
func TestEngineParamsAreViewsOfOneBuffer(t *testing.T) {
	for _, layout := range []Layout{{TP: 1, FSDP: 1, DDP: 1}, {TP: 2, FSDP: 3, DDP: 1}} {
		testParamViews(t, layout)
	}
}

func testParamViews(t *testing.T, layout Layout) {
	engines, _ := buildEngines(t, layout, DefaultOptions(), 31)
	check := func(when string) {
		t.Helper()
		for r, e := range engines {
			if e.ddpBuf != nil {
				t.Errorf("%s: rank %d holds bucket buffers without DDPBucketBytes", when, r)
			}
			for b := range e.blocks {
				flatW, flatG := e.flatW[b], e.flatG[b]
				if want := parallel.NumelPadded(e.blockParams[b], layout.FSDP); len(flatW) != want || len(flatG) != want {
					t.Fatalf("%s: rank %d block %d flat vectors hold %d / %d floats, want %d", when, r, b, len(flatW), len(flatG), want)
				}
				off := 0
				for i, p := range e.blockParams[b] {
					if &p.W.Data()[0] != &flatW[off] || &p.Grad.Data()[0] != &flatG[off] {
						t.Errorf("%s: rank %d block %d param %d (%s) is not the view at offset %d", when, r, b, i, p.Name, off)
					}
					off += p.W.Len()
				}
				if off != e.logicalLen[b] || (off == len(flatW)) != (layout.FSDP == 1) {
					t.Fatalf("%s: rank %d block %d params cover %d of %d floats, want %d and a padding tail at FSDP > 1", when, r, b, off, len(flatW), e.logicalLen[b])
				}
				for i := off; i < len(flatW); i++ {
					if flatW[i] != 0 || flatG[i] != 0 {
						t.Errorf("%s: rank %d block %d padding[%d] = %v / %v, want 0", when, r, b, i, flatW[i], flatG[i])
					}
				}
				n := len(flatW) / layout.FSDP
				c := e.chunks[b]
				if c.W.Len() != n || c.Grad.Len() != n || &c.W.Data()[0] != &flatW[e.Coord.F*n] {
					t.Errorf("%s: rank %d block %d weight chunk is not [F·n, (F+1)·n) of flatW", when, r, b)
				}
				g := &c.Grad.Data()[0]
				inFlat := uintptr(unsafe.Pointer(g))-uintptr(unsafe.Pointer(&flatG[0])) < uintptr(4*len(flatG))
				if e.perMicro != (layout.FSDP > 1) || e.perMicro == inFlat || !e.perMicro && g != &flatG[e.Coord.F*n] {
					t.Errorf("%s: rank %d block %d chunk gradient: per-micro %v, inside flatG %v", when, r, b, e.perMicro, inFlat)
				}
			}
		}
	}
	check("after NewEngine")
	opts := make([]*optim.AdamW, layout.Ranks())
	for r := range opts {
		opts[r] = optim.NewAdamW(engines[r].Chunks(), 0)
	}
	for step := 0; step < 2; step++ {
		xs, targets := testBatch(uint64(32+step), layout.FSDP)
		hybridStep(engines, layout, xs, targets)
		runSPMD(layout.Ranks(), func(rank int) { opts[rank].Step(1e-3) })
	}
	check("after two steps")
}
