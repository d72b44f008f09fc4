package core

import (
	"reflect"
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/tensor"
)

// engineStepGrads runs one SPMD forward/backward over the grid and
// returns each rank's chunk gradients.
func engineStepGrads(t *testing.T, layout Layout, opts Options) [][][]float32 {
	t.Helper()
	engines, _ := buildEngines(t, layout, opts, 77)
	rng := tensor.NewRNG(78)
	dataRanks := layout.FSDP * layout.DDP
	xs := make([]*tensor.Tensor, dataRanks)
	gs := make([]*tensor.Tensor, dataRanks)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, testTokens, testDim)
		gs[i] = tensor.Randn(rng, 1, testTokens, testDim)
	}
	runSPMD(layout.Ranks(), func(rank int) {
		c := layout.CoordOf(rank)
		d := c.D*layout.FSDP + c.F
		if _, err := engines[rank].Forward(xs[d]); err != nil {
			panic(err)
		}
		if _, err := engines[rank].Backward(gs[d]); err != nil {
			panic(err)
		}
	})
	out := make([][][]float32, len(engines))
	for r, e := range engines {
		for _, c := range e.Chunks() {
			out[r] = append(out[r], append([]float32(nil), c.Grad.Data()...))
		}
	}
	return out
}

// TestDDPBucketingBitIdentical pins the DDPBucketBytes knob: packing
// the outer gradient all-reduces into flat buckets must produce
// exactly the per-chunk reduction's bits (both accumulate elementwise
// in float64), for bucket sizes that force one, several, and a single
// coalesced collective.
func TestDDPBucketingBitIdentical(t *testing.T) {
	layout := Layout{TP: 1, FSDP: 2, DDP: 2}
	base := engineStepGrads(t, layout, DefaultOptions())
	for _, bytes := range []int{64, 1 << 10, 1 << 30} {
		opts := DefaultOptions()
		opts.DDPBucketBytes = bytes
		got := engineStepGrads(t, layout, opts)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("bucketed DDP (bucket %d bytes) gradients differ from per-chunk reduction", bytes)
		}
	}
}

// TestPrefetchDepthBitIdentical pins the PrefetchDepth knob: deeper
// gather prefetch changes only when collectives are posted, never
// what they carry.
func TestPrefetchDepthBitIdentical(t *testing.T) {
	layout := Layout{TP: 2, FSDP: 2, DDP: 1}
	base := engineStepGrads(t, layout, DefaultOptions())
	for _, depth := range []int{0, 2, 3} {
		opts := DefaultOptions()
		opts.PrefetchDepth = depth
		got := engineStepGrads(t, layout, opts)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("prefetch depth %d gradients differ from depth-1 baseline", depth)
		}
	}
	// A negative depth would post no gather before waiting on it.
	opts := DefaultOptions()
	opts.PrefetchDepth = -1
	groups, err := BuildGroups(layout, cluster.NewMachine(cluster.Frontier(), 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(0, layout, groups[0], buildStack(77), opts, nil); err == nil {
		t.Fatal("NewEngine accepted prefetch depth -1")
	}
}

// TestBucketRanges pins the coalescing geometry the planner predicts.
func TestBucketRanges(t *testing.T) {
	got := BucketRanges([]int{10, 10, 10, 10}, 80) // 20 floats per bucket
	want := [][2]int{{0, 2}, {2, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BucketRanges = %v, want %v", got, want)
	}
	// A chunk larger than the cap still gets its own bucket.
	got = BucketRanges([]int{100, 5, 5}, 40)
	want = [][2]int{{0, 1}, {1, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BucketRanges oversized = %v, want %v", got, want)
	}
	got = BucketRanges([]int{3}, 4)
	want = [][2]int{{0, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BucketRanges single = %v, want %v", got, want)
	}
}

// TestComputeChargedToClocks: the functional engine charges block
// FLOPs to the simulated device clock, so a step costs compute time
// even on a single-group layout with near-zero communication.
func TestComputeChargedToClocks(t *testing.T) {
	layout := Layout{TP: 1, FSDP: 1, DDP: 1}
	engines, m := buildEngines(t, layout, DefaultOptions(), 9)
	x := tensor.Randn(tensor.NewRNG(10), 1, testTokens, testDim)
	if _, err := engines[0].Forward(x); err != nil {
		t.Fatal(err)
	}
	if _, err := engines[0].Backward(x); err != nil {
		t.Fatal(err)
	}
	// Forward charges 1× per block, backward 3× (2× gradient math +
	// 1× checkpoint recompute) under DefaultOptions.
	want := float64(4*testLayers*BlockFLOPs(testTokens, testDim, 1)) /
		(m.Spec.PeakFLOPS * m.Spec.Efficiency)
	got := m.Devices[0].Clock()
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("clock = %v, want %v (pure compute, no comm cost on 1-rank groups)", got, want)
	}
}
