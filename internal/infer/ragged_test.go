package infer

import (
	"fmt"
	"sync/atomic"
	"testing"

	"orbit/internal/tensor"
)

// permutations calls fn with every ordering of 0..n-1 (Heap's
// algorithm; fn must not retain the slice).
func permutations(n int, fn func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	rec(n)
}

// TestRaggedRolloutMatchesSingleSample pins the ragged loop: a fused
// batch of mixed horizons, in every order the samples can be submitted
// in, gives each sample exactly its own steps — bit-identical to a
// single-sample Engine.Rollout — and runs Σ steps sample-forwards, not
// batch × longest. Covered on the planned single-device forward, on a
// batch wider than one worker chunk, and on the tensor-parallel trunk.
func TestRaggedRolloutMatchesSingleSample(t *testing.T) {
	horizons := []int{1, 2, 2, 4, 3, 1} // the first four are permuted; all six span two chunks
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"single-device", Config{MaxBatch: 4}},
		{"tp2", Config{MaxBatch: 4, TP: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(eqModel(t, 0, 19), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ics := make([]*tensor.Tensor, len(horizons))
			want := make([][]*tensor.Tensor, len(horizons))
			for i, h := range horizons {
				ics[i] = eqInput(uint64(70 + i))
				want[i] = make([]*tensor.Tensor, h)
				eng.Rollout(ics[i], h, 24, func(_, s int, pred *tensor.Tensor) { want[i][s] = pred.Clone() })
			}

			// run rolls the samples out in the given submission order and
			// checks every step of every sample against its reference.
			run := func(order []int) {
				t.Helper()
				n := len(order)
				in, steps, leads := make([]*tensor.Tensor, n), make([]int, n), make([]float64, n)
				got := make([][]*tensor.Tensor, n)
				sum := 0
				for b, i := range order {
					in[b], steps[b], leads[b] = ics[i], horizons[i], 24
					got[b] = make([]*tensor.Tensor, horizons[i])
					sum += horizons[i]
				}
				var calls atomic.Int64
				eng.RolloutRagged(in, steps, leads, func(b, s int, pred *tensor.Tensor) {
					calls.Add(1)
					if s >= steps[b] || got[b][s] != nil {
						t.Errorf("order %v: sample %d got step %d of %d (or got it twice)", order, b, s, steps[b])
						return
					}
					got[b][s] = pred.Clone()
				})
				if int(calls.Load()) != sum {
					t.Fatalf("order %v: %d sample-forwards, want Σ steps = %d", order, calls.Load(), sum)
				}
				for b, i := range order {
					for s := range got[b] {
						mustIdentical(t, fmt.Sprintf("order %v sample %d step %d", order, i, s), got[b][s], want[i][s])
					}
				}
			}
			permutations(4, func(p []int) { run(p) })
			run([]int{5, 3, 0, 4, 2, 1}) // two chunks: 4 + 2, concurrent for the single-device engine
		})
	}
}

// TestUniformRolloutIsTheRaggedLoop pins the thin callers: a uniform
// horizon through RolloutBatch visits (step, sample) pairs in the
// order the fused loop always has — all samples of a step before the
// next step — so it issues the same forwards over the same batch.
func TestUniformRolloutIsTheRaggedLoop(t *testing.T) {
	eng, err := NewEngine(eqModel(t, 0, 23), Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	ics := []*tensor.Tensor{eqInput(1), eqInput(2), eqInput(3)}
	var visits [][2]int
	eng.RolloutBatch(ics, 2, []float64{24, 24, 24}, func(b, s int, _ *tensor.Tensor) {
		visits = append(visits, [2]int{s, b})
	})
	want := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if fmt.Sprint(visits) != fmt.Sprint(want) {
		t.Fatalf("uniform rollout visited (step, sample) %v, want %v", visits, want)
	}
}
