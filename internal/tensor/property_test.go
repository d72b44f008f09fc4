package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// randMat builds a deterministic pseudo-random matrix from a seed; used
// by quick-check properties so the generator stays in control of sizes.
func randMat(seed uint64, rows, cols int) *Tensor {
	return Randn(NewRNG(seed), 1, rows, cols)
}

// TestPropertyMatrixChainShardIdentity verifies the paper's Eqn. (2):
// xAB == Σ_k x·A[:,k]·B[k,:] for any shard count K dividing the inner
// width. This identity is the mathematical foundation of Hybrid-STOP.
func TestPropertyMatrixChainShardIdentity(t *testing.T) {
	prop := func(seed uint64, kSel, sizeSel uint8) bool {
		kChoices := []int{1, 2, 4, 8}
		k := kChoices[int(kSel)%len(kChoices)]
		inner := 8 * (1 + int(sizeSel)%3) // 8, 16 or 24: divisible by all K
		m, n := 3+int(sizeSel)%5, 4+int(sizeSel)%3
		rng := NewRNG(seed)
		x := Randn(rng, 1, m, inner)
		a := Randn(rng, 1, inner, inner)
		b := Randn(rng, 1, inner, n)

		full := MatMulInto(New(m, n), MatMulInto(New(m, inner), x, a), b)

		sum := New(m, n)
		for s := 0; s < k; s++ {
			ak := ColumnShard(a, s, k)
			bk := RowShard(b, s, k)
			sum.AddInPlace(MatMulInto(New(m, n), MatMulInto(New(m, inner/k), x, ak), bk))
		}
		return AllClose(sum, full, 1e-3, 1e-3)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyGradientShardIdentity verifies the paper's Eqn. (3): the
// input gradient of y = xAB under upstream gradient G is G·(AB)ᵀ =
// Σ_k G·(A[:,k]B[k,:])ᵀ, i.e. shard-wise gradient contributions sum to
// the full gradient.
func TestPropertyGradientShardIdentity(t *testing.T) {
	prop := func(seed uint64, kSel uint8) bool {
		kChoices := []int{2, 4}
		k := kChoices[int(kSel)%len(kChoices)]
		m, inner, n := 4, 8, 5
		rng := NewRNG(seed)
		a := Randn(rng, 1, inner, inner)
		b := Randn(rng, 1, inner, n)
		g := Randn(rng, 1, m, n) // upstream gradient dL/dy

		// Full: dL/dx = G @ Bᵀ @ Aᵀ
		full := MatMulTransBInto(New(m, inner), MatMulTransBInto(New(m, inner), g, b), a)

		sum := New(m, inner)
		for s := 0; s < k; s++ {
			ak := ColumnShard(a, s, k)
			bk := RowShard(b, s, k)
			sum.AddInPlace(MatMulTransBInto(New(m, inner), MatMulTransBInto(New(m, inner/k), g, bk), ak))
		}
		return AllClose(sum, full, 1e-3, 1e-3)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMatMulDistributes checks (A+B)C == AC + BC.
func TestPropertyMatMulDistributes(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := Randn(rng, 1, 5, 7)
		b := Randn(rng, 1, 5, 7)
		c := Randn(rng, 1, 7, 4)
		left := MatMulInto(New(5, 4), AddInto(New(5, 7), a, b), c)
		ac := MatMulInto(New(5, 4), a, c)
		right := AddInto(ac, ac, MatMulInto(New(5, 4), b, c))
		return AllClose(left, right, 1e-4, 1e-4)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTransposeProduct checks (AB)ᵀ == BᵀAᵀ.
func TestPropertyTransposeProduct(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := Randn(rng, 1, 6, 3)
		b := Randn(rng, 1, 3, 5)
		left := TransposeInto(New(5, 6), MatMulInto(New(6, 5), a, b))
		right := MatMulInto(New(5, 6), TransposeInto(New(5, 3), b), TransposeInto(New(3, 6), a))
		return AllClose(left, right, 1e-4, 1e-4)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRNGDeterminism: identical seeds yield identical streams,
// distinct seeds (almost surely) diverge.
func TestPropertyRNGDeterminism(t *testing.T) {
	prop := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		c := NewRNG(seed + 1)
		return c.Uint64() != NewRNG(seed).Uint64()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandnMoments(t *testing.T) {
	r := NewRNG(4)
	x := Randn(r, 2, 10000)
	mean := x.Mean()
	if mean < -0.1 || mean > 0.1 {
		t.Errorf("Randn mean = %v, want ~0", mean)
	}
	var varsum float64
	for _, v := range x.Data() {
		varsum += float64(v) * float64(v)
	}
	variance := varsum / float64(x.Len())
	if variance < 3.5 || variance > 4.5 {
		t.Errorf("Randn variance = %v, want ~4", variance)
	}
}

func TestXavierUniformBounds(t *testing.T) {
	r := NewRNG(5)
	w := XavierUniform(r, 64, 64)
	limit := float32(0.2165 + 1e-4) // sqrt(6/128)
	for _, v := range w.Data() {
		if v > limit || v < -limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
}

// TestPropertyStridedHeadsMatchStacks pins the batched products' one
// addressing. Every operand read or written in place as head h's
// column block of a token-major [n·T, H·d] matrix must give, under
// Float32bits, what the same product gives over the head-major
// [n·H, T, d] stacks SplitHeadsInto / MergeHeadsInto regroup it into,
// on the vector and the portable path; and the Kᵀ pack from a strided
// source must equal its definition. Heads 1–4, d ∈ {4, 8, 12, 16, 24},
// T 1–23 (every residue of 6 and 8), n 1–3 samples taken in turn as T
// steps.
func TestPropertyStridedHeadsMatchStacks(t *testing.T) {
	defer func(v bool) { useFMA = v }(useFMA)
	same := func(what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: element %d is %v, head-major stack gives %v", what, i, got[i], want[i])
			}
		}
	}
	rng := NewRNG(1701)
	for _, vec := range []bool{false, useFMA} {
		useFMA = vec
		for heads := 1; heads <= 4; heads++ {
			for _, d := range []int{4, 8, 12, 16, 24} {
				for tok := 1; tok <= 23; tok++ {
					n := 1 + tok%3
					what := fmt.Sprintf("vector=%v H=%d d=%d T=%d n=%d", vec, heads, d, tok, n)
					b, w := n*heads, heads*d
					toStack := func(x *Tensor) *Tensor {
						s := New(b, tok, d)
						for i := 0; i < n; i++ {
							SplitHeadsInto(FromSlice(s.data[i*tok*w:(i+1)*tok*w], heads, tok, d), FromSlice(x.data[i*tok*w:(i+1)*tok*w], tok, w), heads)
						}
						return s
					}
					fromStack := func(s *Tensor) []float32 {
						x := New(n*tok, w)
						for i := 0; i < n; i++ {
							MergeHeadsInto(FromSlice(x.data[i*tok*w:(i+1)*tok*w], tok, w), FromSlice(s.data[i*tok*w:(i+1)*tok*w], heads, tok, d), heads)
						}
						return x.data
					}
					q, k, v := Randn(rng, 1, n*tok, w), Randn(rng, 1, n*tok, w), Randn(rng, 1, n*tok, w)
					qs, ks, vs := toStack(q), toStack(k), toStack(v)
					p := Randn(rng, 1, b, tok, tok)

					want := BatchedMatMulTransBScaledInto(New(b, tok, tok), qs, ks, 0.37).data
					same(what+" Q·Kᵀ", BatchedMatMulTransBScaledInto(New(b, tok, tok), q, k, 0.37).data, want)
					same(what+" Q·Kᵀ, K a stack", BatchedMatMulTransBScaledInto(New(b, tok, tok), q, ks, 0.37).data, want)
					same(what+" Q·Kᵀ, Q a stack", BatchedMatMulTransBScaledInto(New(b, tok, tok), qs, k, 0.37).data, want)

					want = fromStack(BatchedMatMulInto(New(b, tok, d), p, vs))
					same(what+" P·V", BatchedMatMulInto(New(n*tok, w), p, v).data, want)
					same(what+" P·V, V a stack", BatchedMatMulInto(New(n*tok, w), p, vs).data, want)

					want = fromStack(BatchedMatMulTransAInto(New(b, tok, d), p, vs))
					same(what+" Pᵀ·dO", BatchedMatMulTransAInto(New(n*tok, w), p, v).data, want)

					for h := 0; h < heads; h++ {
						src := k.data[h*d:]
						got := make([]float32, tok*d)
						packTranspose(got, src, tok, d, w)
						for c := 0; c < d; c++ {
							for r := 0; r < tok; r++ {
								if got[c*tok+r] != src[r*w+c] {
									t.Fatalf("%s head %d: packed Kᵀ[%d,%d] = %v, want %v", what, h, c, r, got[c*tok+r], src[r*w+c])
								}
							}
						}
					}
				}
			}
		}
	}
}
