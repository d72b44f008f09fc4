package parallel

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/comm"
	"orbit/internal/nn"
	"orbit/internal/tensor"
)

const (
	testDim    = 8
	testHeads  = 2
	testTokens = 6
	testLayers = 2
)

// buildStack constructs a deterministic serial block stack.
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

// mseLoss returns mean squared error and its gradient.
func mseLoss(y, target *tensor.Tensor) (float64, *tensor.Tensor) {
	diff := tensor.SubInto(tensor.New(y.Shape()...), y, target)
	loss := tensor.Dot(diff, diff) / float64(y.Len())
	diff.ScaleInPlace(float32(2) / float32(y.Len()))
	return loss, diff
}

// serialForwardBackward runs the reference stack over a batch of
// inputs, returning the mean loss with gradients averaged over the
// batch (accumulated into the blocks' params).
func serialForwardBackward(blocks []*nn.TransformerBlock, xs, targets []*tensor.Tensor) float64 {
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

func testBatch(seed uint64, n int) (xs, targets []*tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	for i := 0; i < n; i++ {
		xs = append(xs, tensor.Randn(rng, 1, testTokens, testDim))
		targets = append(targets, tensor.Randn(rng, 1, testTokens, testDim))
	}
	return xs, targets
}

// --- Tensor parallelism ---

// tpHalves runs halves first and first+1 of rank's shard b as the
// engine's stage pass orders them: each half, the group's in-place
// all-reduce of its partial, the join — and before the attention
// backward's all-reduce that of the packed QK-norm gradients.
func tpHalves(b *nn.TransformerBlock, g *comm.Group, rank, first int, x *tensor.Tensor) *tensor.Tensor {
	for h := first; h < first+2; h++ {
		b.Half(h, x)
		if h == 3 && b.Attn.QKNorm && g.Size() > 1 {
			g.AllReduceSumInto(rank, b.Partial(4), b.Partial(4))
			b.Join(4)
		}
		g.AllReduceSumInto(rank, b.Partial(h), b.Partial(h))
		x = b.Join(h)
	}
	return x
}

func TestTPBlockMatchesSerial(t *testing.T) {
	for _, tp := range []int{1, 2} {
		serial := buildStack(21)
		m := cluster.NewMachine(cluster.Frontier(), 1, tp)
		g := comm.NewGroup(m.Devices)

		xs, targets := testBatch(22, 1)
		serialLoss := serialForwardBackward(serial, xs, targets)

		// Fresh reference (serialForwardBackward mutated grads only).
		blocks := make([][]*nn.TransformerBlock, tp)
		for r := 0; r < tp; r++ {
			ref := buildStack(21)
			blocks[r] = make([]*nn.TransformerBlock, testLayers)
			for i := range ref {
				blocks[r][i] = NewTPBlock(r, tp, ref[i])
				b := blocks[r][i]
				// The row-parallel output biases live on rank 0 alone.
				if (b.Attn.WO.Bias == nil) != (r > 0) || (b.MLP.FC2.Bias == nil) != (r > 0) {
					t.Errorf("tp=%d rank %d: output bias presence WO=%v FC2=%v, want only on rank 0",
						tp, r, b.Attn.WO.Bias != nil, b.MLP.FC2.Bias != nil)
				}
				if tp > 1 {
					continue
				}
				// K = 1: the shard is the reference, parameter for parameter.
				got, want := b.Params(), ref[i].Params()
				if len(got) != len(want) {
					t.Fatalf("tp=1 block %d: %d params, reference has %d", i, len(got), len(want))
				}
				for j := range want {
					if !tensor.AllClose(got[j].W, want[j].W, 0, 0) {
						t.Errorf("tp=1 block %d: %s differs from reference %s", i, got[j].Name, want[j].Name)
					}
				}
			}
		}

		losses := make([]float64, tp)
		dxs := make([]*tensor.Tensor, tp)
		runSPMD(tp, func(rank int) {
			h := xs[0]
			for _, b := range blocks[rank] {
				h = tpHalves(b, g, rank, 0, h)
			}
			loss, grad := mseLoss(h, targets[0])
			losses[rank] = loss
			dy := grad
			for i := testLayers - 1; i >= 0; i-- {
				dy = tpHalves(blocks[rank][i], g, rank, 2, dy)
			}
			dxs[rank] = dy
		})

		for r := 0; r < tp; r++ {
			if math.Abs(losses[r]-serialLoss) > 1e-4*(1+math.Abs(serialLoss)) {
				t.Errorf("tp=%d rank %d loss %v vs serial %v", tp, r, losses[r], serialLoss)
			}
		}
		// One rank runs the serial block's own code over the serial
		// weights: not close, equal.
		if tp == 1 && losses[0] != serialLoss {
			t.Errorf("tp=1 loss %v differs from serial %v in bits", losses[0], serialLoss)
		}

		// Input gradients match the serial stack's.
		serialDx := func() *tensor.Tensor {
			ref := buildStack(21)
			h := xs[0]
			for _, b := range ref {
				h = b.Forward(h)
			}
			_, grad := mseLoss(h, targets[0])
			dy := grad
			for i := testLayers - 1; i >= 0; i-- {
				dy = ref[i].Backward(dy)
			}
			return dy
		}()
		for r := 0; r < tp; r++ {
			if !tensor.AllClose(dxs[r], serialDx, 1e-3, 1e-4) {
				t.Errorf("tp=%d rank %d input grad mismatch (max diff %g)", tp, r, tensor.MaxDiff(dxs[r], serialDx))
			}
		}
	}
}

func TestTPShardGradientsMatchSerialShards(t *testing.T) {
	tp := 2
	serial := buildStack(31)
	xs, targets := testBatch(32, 1)
	serialForwardBackward(serial, xs, targets)

	m := cluster.NewMachine(cluster.Frontier(), 1, tp)
	g := comm.NewGroup(m.Devices)
	blocks := make([][]*nn.TransformerBlock, tp)
	for r := 0; r < tp; r++ {
		ref := buildStack(31)
		blocks[r] = []*nn.TransformerBlock{NewTPBlock(r, tp, ref[0]), NewTPBlock(r, tp, ref[1])}
	}
	runSPMD(tp, func(rank int) {
		h := xs[0]
		for _, b := range blocks[rank] {
			h = tpHalves(b, g, rank, 0, h)
		}
		_, grad := mseLoss(h, targets[0])
		grad.ScaleInPlace(1) // batch of one: serial averaging is a no-op
		dy := grad
		for i := testLayers - 1; i >= 0; i-- {
			dy = tpHalves(blocks[rank][i], g, rank, 2, dy)
		}
	})

	// Rank r's WQ grad shard equals the serial WQ grad's column shard.
	for r := 0; r < tp; r++ {
		want := tensor.ColumnShard(serial[0].Attn.WQ.Weight.Grad, r, tp)
		got := blocks[r][0].Attn.WQ.Weight.Grad
		if !tensor.AllClose(got, want, 1e-3, 1e-4) {
			t.Errorf("rank %d WQ grad shard mismatch (max diff %g)", r, tensor.MaxDiff(got, want))
		}
		wantFC2 := tensor.RowShard(serial[0].MLP.FC2.Weight.Grad, r, tp)
		gotFC2 := blocks[r][0].MLP.FC2.Weight.Grad
		if !tensor.AllClose(gotFC2, wantFC2, 1e-3, 1e-4) {
			t.Errorf("rank %d FC2 grad shard mismatch (max diff %g)", r, tensor.MaxDiff(gotFC2, wantFC2))
		}
		// Replicated LN grads equal the serial LN grads on every rank.
		wantLN := serial[0].LN1.Gamma.Grad
		gotLN := blocks[r][0].LN1.Gamma.Grad
		if !tensor.AllClose(gotLN, wantLN, 1e-3, 1e-4) {
			t.Errorf("rank %d LN1 grad mismatch", r)
		}
	}
}

func TestTPRejectsIndivisibleHeads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: TP size must divide heads")
		}
	}()
	rng := tensor.NewRNG(1)
	ref := nn.NewMultiHeadAttention("x", 12, 3, false, rng)
	shardAttention(ref, 0, 2)
}

// --- flatten helpers ---

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(60)
	ps := []*nn.Param{
		nn.NewParam("a", tensor.Randn(rng, 1, 3, 4)),
		nn.NewParam("b", tensor.Randn(rng, 1, 5)),
	}
	flat := FlattenParams(ps, 4) // 17 -> padded 20
	if len(flat) != 20 {
		t.Fatalf("padded length %d, want 20", len(flat))
	}
	orig := []*tensor.Tensor{ps[0].W.Clone(), ps[1].W.Clone()}
	ps[0].W.Zero()
	ps[1].W.Zero()
	BindFlat(flat, ps)
	if !tensor.AllClose(ps[0].W, orig[0], 0, 0) || !tensor.AllClose(ps[1].W, orig[1], 0, 0) {
		t.Error("the views of the flat vector do not hold the weights")
	}
	if NumelPadded(ps, 4) != 20 {
		t.Errorf("NumelPadded = %d", NumelPadded(ps, 4))
	}
}

// TestBindFlatMakesParamsViews: after BindFlat every weight and
// gradient lives in the two flat vectors at its running offset, with
// its values and shape unchanged.
func TestBindFlatMakesParamsViews(t *testing.T) {
	rng := tensor.NewRNG(61)
	ps := []*nn.Param{
		nn.NewParam("a", tensor.Randn(rng, 1, 3, 4)),
		nn.NewParam("b", tensor.Randn(rng, 1, 5)),
	}
	orig := []*tensor.Tensor{ps[0].W.Clone(), ps[1].W.Clone()}
	flat := FlattenParams(ps, 4)
	grads := BindFlat(flat, ps)
	if len(grads) != len(flat) {
		t.Fatalf("gradient vector has %d elements, weights %d", len(grads), len(flat))
	}
	off := 0
	for i, p := range ps {
		if &p.W.Data()[0] != &flat[off] || &p.Grad.Data()[0] != &grads[off] {
			t.Errorf("param %d is not the view at offset %d", i, off)
		}
		if !tensor.AllClose(p.W, orig[i], 0, 0) || !slices.Equal(p.W.Shape(), orig[i].Shape()) || !slices.Equal(p.Grad.Shape(), orig[i].Shape()) {
			t.Errorf("param %d changed value or shape", i)
		}
		off += p.W.Len()
	}
	flat[12], grads[12] = 7, 9 // first element of b
	if ps[1].W.Data()[0] != 7 || ps[1].Grad.Data()[0] != 9 {
		t.Error("a write to the flat vectors did not reach the parameter")
	}
}
