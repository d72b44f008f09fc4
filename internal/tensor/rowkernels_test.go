package tensor_test

import (
	"fmt"
	"math"
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/comm"
	"orbit/internal/nn"
	"orbit/internal/optim"
	"orbit/internal/tensor"
)

// Contract of the row kernels (rowvec_amd64.s, elemvec_amd64.s): each
// equals, bit for bit, the scalar loop it is the vector form of —
// optim's AdamW update, comm's two-rank reduce, nn's LayerNorm forward
// and backward, and this package's GELU, softmax, streaming and
// transpose loops. The float64 loops live in those packages, so every
// test drives the owner's public entry point twice, CPU gate off (the
// loop alone) and on (kernel body, loop tail), and compares bits.

// bothWays returns f's result with the assembly kernels off and on.
func bothWays[T any](t *testing.T, f func() T) (scalar, vector T) {
	t.Helper()
	if !tensor.HostVector {
		t.Skip("vector kernels unavailable on this CPU")
	}
	defer tensor.SetVector(true)
	tensor.SetVector(false)
	scalar = f()
	tensor.SetVector(true)
	return scalar, f()
}

// sameBits fails on the first element whose bits differ. With nanOK a
// NaN matches any NaN: which payload an x86 add hands on when both
// operands are NaN depends on operand order, which is not the contract.
func sameBits(t *testing.T, what string, got, want []float32, nanOK bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: lengths %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) == math.Float32bits(want[i]) {
			continue
		}
		if nanOK && got[i] != got[i] && want[i] != want[i] {
			continue
		}
		t.Fatalf("%s: element %d is %v (%#x), scalar loop gives %v (%#x)", what, i,
			got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
}

// magnitudes returns n values of either sign spread over twelve
// decades, 1e-6 … 1e6.
func magnitudes(rng *tensor.RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.Norm() * math.Pow(10, 12*rng.Float64()-6))
	}
	return s
}

func sentinel(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(math.NaN())
	}
	return s
}

// TestAdamWVecMatchesScalar steps one parameter of every length class:
// below 97 elements Step's tiles are shorter than a vector (scalar
// only), from there on the tile length walks through every n%4 tail
// and tile starts fall anywhere in a vector. Gradients and second
// moments include exact zeros; the step count covers the first bias
// correction and one a million steps in, where both are 1 to within an
// ulp. The second Step runs from the state the first one wrote.
func TestAdamWVecMatchesScalar(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 33, 97, 128, 131, 160, 161, 192, 195, 224, 230, 1000, 4099, 16389} {
		for _, steps := range []int{0, 999999} {
			run := func() []float32 {
				rng := tensor.NewRNG(uint64(n))
				p := nn.NewParam("w", tensor.FromSlice(magnitudes(rng, n), n))
				opt := optim.NewAdamW([]*nn.Param{p}, 0.01)
				m, v := opt.Moments()
				copy(p.Grad.Data(), magnitudes(rng, n))
				copy(m[0].Data(), magnitudes(rng, n))
				for i, x := range magnitudes(rng, n) {
					v[0].Data()[i] = x * x
					if i%5 == 0 {
						p.Grad.Data()[i] = 0
					}
					if i%7 == 0 {
						v[0].Data()[i] = 0 // with i%35 == 0: √0 + ε under a zero gradient
					}
				}
				opt.SetStepCount(steps)
				opt.Step(1e-3)
				opt.Step(3e-4)
				out := append([]float32(nil), p.W.Data()...)
				return append(append(out, m[0].Data()...), v[0].Data()...)
			}
			scalar, vector := bothWays(t, run)
			sameBits(t, fmt.Sprintf("AdamW n=%d after %d steps (w, m, v)", n, steps), vector, scalar, false)
		}
	}
}

// special holds ±0, the smallest and largest denormal, ±Inf, NaN and
// ±MaxFloat32.
var special = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(1), math.Float32frombits(0x007fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32,
}

// reduceInputs returns two rank buffers of n elements: every pairing of
// the special values (±0, the smallest and largest denormal, ±Inf, NaN,
// ±MaxFloat32) first, magnitudes after.
func reduceInputs(rng *tensor.RNG, n int) (a, b []float32) {
	a, b = magnitudes(rng, n), magnitudes(rng, n)
	for i := 0; i < n && i < len(special)*len(special); i++ {
		a[i], b[i] = special[i/len(special)], special[i%len(special)]
	}
	return a, b
}

// TestSum2VecMatchesScalar runs the two-rank all-reduce and
// reduce-scatter, sum (scale 1) and mean (scale 1/2), in place and into
// separate destinations, over lengths with every n%4 tail and odd
// reduce-scatter chunks, so that the second rank's chunk starts in the
// middle of a vector.
func TestSum2VecMatchesScalar(t *testing.T) {
	g := comm.NewGroup(cluster.NewMachine(cluster.Frontier(), 1, 8).Devices[:2])
	post := func(op string, mean bool, rank int, buf, dst []float32) comm.Handle {
		switch {
		case op == "all-reduce" && mean:
			return g.IAllReduceMean(rank, buf, dst)
		case op == "all-reduce":
			return g.IAllReduceSum(rank, buf, dst)
		case mean:
			return g.IReduceScatterMean(rank, buf, dst)
		}
		return g.IReduceScatterSum(rank, buf, dst)
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 101, 130, 131, 4099} {
		for _, op := range []string{"all-reduce", "reduce-scatter"} {
			for _, mean := range []bool{false, true} {
				for _, inPlace := range []bool{false, true} {
					run := func() []float32 {
						a, b := reduceInputs(tensor.NewRNG(uint64(n)), n)
						size := n
						if op == "reduce-scatter" {
							a, b = append(a, b...), append(b, a...) // 2n elements: two chunks of n
						}
						d0, d1 := sentinel(size), sentinel(size)
						if inPlace && op == "all-reduce" {
							d0, d1 = a, b
						} else if inPlace {
							d0, d1 = a[:n], b[n:]
						}
						h0, h1 := post(op, mean, 0, a, d0), post(op, mean, 1, b, d1)
						h0.Wait()
						h1.Wait()
						return append(append([]float32(nil), d0...), d1...)
					}
					scalar, vector := bothWays(t, run)
					sameBits(t, fmt.Sprintf("%s n=%d mean=%v inPlace=%v", op, n, mean, inPlace), vector, scalar, true)
				}
			}
		}
	}
}

// TestLayerNormRowsVecMatchesScalar sweeps every width 4…80 (a width
// that is not a multiple of 4 takes the scalar loop under either
// setting) and 1…13 rows, over the whole block and over an inner range
// of it: the four-row body, the one- to three-row tail, and the rows
// outside [r0, r1), which must keep their sentinels. Each is run with
// both caches, with neither, and with xhat aliasing out.
func TestLayerNormRowsVecMatchesScalar(t *testing.T) {
	rng := tensor.NewRNG(81)
	for dim := 4; dim <= 80; dim++ {
		for rows := 1; rows <= 13; rows++ {
			x := tensor.Randn(rng, 3, rows, dim).Data()
			for c := 0; c < dim; c++ {
				x[c] = 1.5 // a constant row: variance exactly 0
			}
			gamma, beta := tensor.Randn(rng, 1, dim).Data(), tensor.Randn(rng, 1, dim).Data()
			r0 := rng.Intn(rows)
			r1 := r0 + 1 + rng.Intn(rows-r0)
			for _, r := range [][2]int{{0, rows}, {r0, r1}} {
				for _, mode := range []string{"caches", "bare", "alias"} {
					run := func() []float32 {
						out, xhat, rstd := sentinel(rows*dim), sentinel(rows*dim), make([]float64, rows)
						switch mode {
						case "bare":
							nn.LayerNormRows(out, nil, nil, x, gamma, beta, 1e-5, r[0], r[1])
						case "alias":
							nn.LayerNormRows(out, out, rstd, x, gamma, beta, 1e-5, r[0], r[1])
						default:
							nn.LayerNormRows(out, xhat, rstd, x, gamma, beta, 1e-5, r[0], r[1])
						}
						for _, v := range rstd {
							out = append(out, float32(v), float32(v-float64(float32(v)))) // all 53 bits, in two halves
						}
						return append(out, xhat...)
					}
					scalar, vector := bothWays(t, run)
					sameBits(t, fmt.Sprintf("LayerNormRows [%d,%d] rows %v %s (out, rstd, xhat)", rows, dim, r, mode), vector, scalar, false)
				}
			}
		}
	}
}

// TestLayerNormBackwardVecMatchesScalar compares dx, dγ and dβ of the
// module's backward over widths with and without whole vectors (the
// input gradient takes four columns at a time, the parameter gradients
// eight) and over row counts in every regime of the dγ/dβ runs: one,
// two and four rows per run (32, 64, 128 rows), short last runs, and
// counts that leave the four-row kernel a tail. The gradients start
// from a nonzero value and take two backward passes, so the += is
// covered.
func TestLayerNormBackwardVecMatchesScalar(t *testing.T) {
	rng := tensor.NewRNG(82)
	for _, dim := range []int{4, 6, 8, 9, 12, 16, 20, 36, 64, 72, 80} {
		for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 13, 31, 32, 33, 64, 65, 100, 128, 130, 259} {
			x, dy1, dy2 := tensor.Randn(rng, 2, rows, dim), tensor.Randn(rng, 1, rows, dim), tensor.Randn(rng, 1e-3, rows, dim)
			gamma, beta := tensor.Randn(rng, 1, dim).Data(), tensor.Randn(rng, 1, dim).Data()
			seed := tensor.Randn(rng, 1, 2*dim).Data()
			run := func() []float32 {
				ln := nn.NewLayerNorm("t", dim)
				copy(ln.Gamma.W.Data(), gamma)
				copy(ln.Beta.W.Data(), beta)
				copy(ln.Gamma.Grad.Data(), seed[:dim])
				copy(ln.Beta.Grad.Data(), seed[dim:])
				ln.Forward(x)
				out := append([]float32(nil), ln.Backward(dy1).Data()...)
				out = append(out, ln.Backward(dy2).Data()...)
				return append(append(out, ln.Gamma.Grad.Data()...), ln.Beta.Grad.Data()...)
			}
			scalar, vector := bothWays(t, run)
			sameBits(t, fmt.Sprintf("LayerNorm backward [%d,%d] (dx, dx, dγ, dβ)", rows, dim), vector, scalar, false)
		}
	}
}

// geluInputs returns n pre-activations: twelve decades of either sign,
// a grid over [-12, 12], and ulp-by-ulp walks across the four inputs at
// which the tanh argument √(2/π)·(x + 0.044715·x³) crosses tanh32's
// branch boundaries ±0.625 and ±9.
func geluInputs(rng *tensor.RNG, n int) []float32 {
	x := magnitudes(rng, n)
	for i := 0; i < n/4; i++ {
		x[i] = float32(24*rng.Float64() - 12)
	}
	at := n / 4
	for _, edge := range []float64{0.625, 9} {
		lo, hi := 0.0, 16.0
		for k := 0; k < 60; k++ {
			if mid := (lo + hi) / 2; 0.7978845608028654*(mid+0.044715*mid*mid*mid) < edge {
				lo = mid
			} else {
				hi = mid
			}
		}
		for _, sign := range []float32{1, -1} {
			v := sign * float32(lo)
			for k := 0; k < 100; k++ {
				v = math.Nextafter32(v, 0)
			}
			for k := 0; k < 200 && at < n; k++ {
				x[at] = v
				v = math.Nextafter32(v, sign*float32(math.Inf(1)))
				at++
			}
		}
	}
	return x
}

// gelu runs the cached pair over x and dy: forward with the cache,
// forward without it and in place over x, backward into dy.
func gelu(x, dy []float32) []float32 {
	n := len(x)
	xt, dyt := tensor.FromSlice(append([]float32(nil), x...), n), tensor.FromSlice(append([]float32(nil), dy...), n)
	out, th := tensor.FromSlice(sentinel(n), n), tensor.FromSlice(sentinel(n), n)
	tensor.GELUCachedInto(out, th, xt)
	tensor.GELUBackwardCachedInto(dyt, xt, th, dyt)
	tensor.GELUCachedInto(xt, nil, xt)
	return append(append(append(out.Data(), th.Data()...), xt.Data()...), dyt.Data()...)
}

// TestGELUVecMatchesScalar covers every length 1…40 (each n%8 tail, one
// to five vectors) and a 4 099-element tensor, which ParallelFor cuts
// into tiles that start anywhere in a vector; then every special value
// in every lane and tail position of x and of dy. A NaN activation must
// come out of both passes as NaN, kernel and loop alike: the guard's
// sentinel is a NaN that survives to the loss.
func TestGELUVecMatchesScalar(t *testing.T) {
	rng := tensor.NewRNG(83)
	x, dy := geluInputs(rng, 4099), magnitudes(rng, 4099)
	for n := 1; n <= 41; n++ {
		if n == 41 {
			n = len(x)
		}
		scalar, vector := bothWays(t, func() []float32 { return gelu(x[len(x)-n:], dy[:n]) })
		sameBits(t, fmt.Sprintf("GELU n=%d (out, tanh, in place, dx)", n), vector, scalar, false)
	}
	const n = 23
	for p := 0; p < n; p++ {
		for _, v := range special {
			for _, into := range []string{"x", "dy"} {
				xs, dys := tensor.Randn(rng, 2, n).Data(), tensor.Randn(rng, 1, n).Data()
				if into == "x" {
					xs[p] = v
				} else {
					dys[p] = v
				}
				scalar, vector := bothWays(t, func() []float32 { return gelu(xs, dys) })
				what := fmt.Sprintf("GELU with %v at %s[%d]", v, into, p)
				sameBits(t, what+" (out, tanh, in place, dx)", vector, scalar, true)
				for _, got := range [][]float32{scalar, vector} {
					for part := 0; part < 4 && v != v; part++ {
						if o := got[part*n+p]; o == o && (into == "x" || part == 3) {
							t.Fatalf("%s: the NaN is gone from output %d: %v", what, part, o)
						}
					}
				}
			}
		}
	}
}

// softmax runs SoftmaxInto and SoftmaxBackwardInto over [rows, cols]
// logits x and upstream gradient dy, each into a separate destination
// and in place (the backward over dy, as attention calls it).
func softmax(x, dy []float32, rows, cols int) []float32 {
	clone := func(s []float32) *tensor.Tensor { return tensor.FromSlice(append([]float32(nil), s...), rows, cols) }
	xt, dyt := clone(x), clone(dy)
	y, dx := clone(sentinel(rows*cols)), clone(sentinel(rows*cols))
	tensor.SoftmaxInto(y, xt)
	tensor.SoftmaxInto(xt, xt)
	tensor.SoftmaxBackwardInto(dx, y, dyt)
	tensor.SoftmaxBackwardInto(dyt, y, dyt)
	return append(append(append(y.Data(), xt.Data()...), dx.Data()...), dyt.Data()...)
}

// TestSoftmaxVecMatchesScalar sweeps every width 1…80 (a width that is
// not a multiple of 8 takes the row loop under either setting) × 1…13
// rows — the four-row body and the one- to three-row tail — plus three
// shapes whose tiles hold several groups. Row 0 is constant (every
// element the maximum, every probability equal) and meets an upstream
// gradient of cancelling pairs ±2^k at random columns: the float64 dot
// then keeps or loses the small terms between a pair depending on the
// order it adds in, which is the only way that order reaches a float32.
// (The forward's sum has no such row — its terms are positive, and a
// changed order is a last-bit change of a float64 behind
// float32(1/sum).) Row 1 is all -Inf, row 2's maximum is a tie between
// +0 and -0 in both orders across lanes, row 3 has logits far enough
// below the maximum for exp32 to clamp to 0.
func TestSoftmaxVecMatchesScalar(t *testing.T) {
	rng := tensor.NewRNG(84)
	shapes := [][2]int{{64, 32}, {200, 8}, {259, 16}}
	for cols := 1; cols <= 80; cols++ {
		for rows := 1; rows <= 13; rows++ {
			shapes = append(shapes, [2]int{rows, cols})
		}
	}
	for _, s := range shapes {
		rows, cols := s[0], s[1]
		x, dy := tensor.Randn(rng, 3, rows, cols).Data(), tensor.Randn(rng, 1, rows, cols).Data()
		for k, perm := 0, rng.Perm(cols); k+1 < cols*2/3; k += 2 {
			dy[perm[k]] = float32(math.Ldexp(1+rng.Float64(), 10+rng.Intn(60)))
			dy[perm[k+1]] = -dy[perm[k]]
		}
		for c := 0; c < cols; c++ {
			x[c] = 1.5
			if rows > 3 {
				x[cols+c] = float32(math.Inf(-1))
				x[2*cols+c] = float32(math.Copysign(0, float64(c%3-1))) * float32(c%2) // -0, +0 and negatives of it
				x[3*cols+c] *= 40
			}
		}
		scalar, vector := bothWays(t, func() []float32 { return softmax(x, dy, rows, cols) })
		sameBits(t, fmt.Sprintf("softmax [%d,%d] (y, in place, dx, dx in place)", rows, cols), vector, scalar, true)
	}
}

// TestSoftmaxVecSpecialValues puts every special value at every
// position of a [5,16] tensor (the four-row kernel's two vectors of
// every lane, and the row loop's row 4) and of a [5,11] one (the row
// loop with expVec's three-element tail), in the logits and in the
// upstream gradient. A NaN logit must turn its whole row of
// probabilities into NaN under both settings.
func TestSoftmaxVecSpecialValues(t *testing.T) {
	rng := tensor.NewRNG(85)
	const rows = 5
	for _, cols := range []int{16, 11} {
		for p := 0; p < rows*cols; p++ {
			for _, v := range special {
				for _, into := range []string{"x", "dy"} {
					x, dy := tensor.Randn(rng, 3, rows, cols).Data(), tensor.Randn(rng, 1, rows, cols).Data()
					if into == "x" {
						x[p] = v
					} else {
						dy[p] = v
					}
					scalar, vector := bothWays(t, func() []float32 { return softmax(x, dy, rows, cols) })
					what := fmt.Sprintf("softmax [%d,%d] with %v at %s[%d]", rows, cols, v, into, p)
					sameBits(t, what, vector, scalar, true)
					for _, got := range [][]float32{scalar, vector} {
						for c := p / cols * cols; c < (p/cols+1)*cols && v != v && into == "x"; c++ {
							if got[c] == got[c] {
								t.Fatalf("%s: probability %d of the row is %v, not NaN", what, c, got[c])
							}
						}
					}
				}
			}
		}
	}
}

// TestStreamingVecMatchesScalar runs the float32 streaming loops over
// every length 1…40 and 4 099: AddInto into a third tensor and into
// either operand, AddInPlace, AddVec plus its caller's tail,
// ScaleInPlace, MaxAbs; the first elements pair every special value
// with every other. A NaN must come out of each as a NaN.
func TestStreamingVecMatchesScalar(t *testing.T) {
	for n := 1; n <= 41; n++ {
		if n == 41 {
			n = 4099
		}
		run := func() []float32 {
			a, b := reduceInputs(tensor.NewRNG(uint64(n)), n)
			at, bt := tensor.FromSlice(a, n), tensor.FromSlice(b, n)
			out := append([]float32(nil), tensor.AddInto(tensor.FromSlice(sentinel(n), n), at, bt).Data()...)
			out = append(out, tensor.AddInto(at.Clone(), at, bt).Data()...)
			ca, cb := at.Clone(), bt.Clone()
			out = append(out, tensor.AddInto(ca, ca, bt).Data()...)
			out = append(out, tensor.AddInto(cb, at, cb).Data()...)
			ca = at.Clone()
			ca.AddInPlace(bt)
			acc := append([]float32(nil), a...)
			for i := tensor.AddVec(acc, b); i < n; i++ {
				acc[i] += b[i]
			}
			out = append(append(out, ca.Data()...), acc...)
			ca = at.Clone()
			ca.ScaleInPlace(0.17677669)
			return append(append(out, ca.Data()...), bt.MaxAbs(), tensor.FromSlice(magnitudes(tensor.NewRNG(uint64(n)), n), n).MaxAbs())
		}
		scalar, vector := bothWays(t, run)
		sameBits(t, fmt.Sprintf("streaming n=%d (four AddInto, AddInPlace, AddVec, ScaleInPlace, two MaxAbs)", n), vector, scalar, true)
		if nan := scalar[len(scalar)-2]; n > 7 && nan == nan {
			t.Fatalf("MaxAbs over a NaN is %v", nan)
		}
	}
}

// TestSumRowsVecMatchesScalar accumulates the bias gradient twice (the
// second pass adds to the first's result) over every width 1…40 — each
// cols%8 tail, the 32-column blocks and the 8-column ones after them —
// and over row counts from 1 up, with magnitudes twelve decades apart
// so that a changed row order would show.
func TestSumRowsVecMatchesScalar(t *testing.T) {
	for cols := 1; cols <= 72; cols++ {
		for _, rows := range []int{1, 2, 3, 7, 32, 129} {
			run := func() []float32 {
				rng := tensor.NewRNG(uint64(cols*1000 + rows))
				dst := tensor.FromSlice(magnitudes(rng, cols), cols)
				src := tensor.FromSlice(magnitudes(rng, rows*cols), rows, cols)
				src.Data()[rng.Intn(rows*cols)] = float32(math.NaN())
				tensor.SumRowsAccInto(dst, src)
				return append([]float32(nil), tensor.SumRowsAccInto(dst, src).Data()...)
			}
			scalar, vector := bothWays(t, run)
			sameBits(t, fmt.Sprintf("SumRowsAccInto [%d,%d]", rows, cols), vector, scalar, true)
		}
	}
}

// TestTransposeVecMatchesScalar transposes every shape 1…20 × 1…20 —
// each rows%8 and cols%8 edge around zero, one and two blocks — and
// three larger ones, checking both settings against the definition as
// well as against each other.
func TestTransposeVecMatchesScalar(t *testing.T) {
	shapes := [][2]int{{64, 256}, {70, 131}, {257, 33}}
	for rows := 1; rows <= 20; rows++ {
		for cols := 1; cols <= 20; cols++ {
			shapes = append(shapes, [2]int{rows, cols})
		}
	}
	for _, s := range shapes {
		rows, cols := s[0], s[1]
		src := tensor.New(rows, cols)
		for i := range src.Data() {
			src.Data()[i] = float32(i + 1)
		}
		scalar, vector := bothWays(t, func() []float32 {
			return append([]float32(nil), tensor.TransposeInto(tensor.FromSlice(sentinel(rows*cols), cols, rows), src).Data()...)
		})
		sameBits(t, fmt.Sprintf("TransposeInto [%d,%d]", rows, cols), vector, scalar, false)
		for i, v := range vector {
			if c, r := i/rows, i%rows; v != float32(r*cols+c+1) {
				t.Fatalf("TransposeInto [%d,%d]: dst[%d,%d] = %v, want %v", rows, cols, c, r, v, r*cols+c+1)
			}
		}
	}
}

// BenchmarkRowKernels prints ns per element of the float64 row loops
// and of the float32 elementwise loops at the bench workloads' sizes
// (TP2's halves included), assembly on and off — the one-line
// reproducer of a row-kernel regression:
//
//	go test ./internal/tensor -run '^$' -bench RowKernels -cpu 1
func BenchmarkRowKernels(b *testing.B) {
	rng := tensor.NewRNG(7)
	type row struct {
		name  string
		elems int
		call  func()
	}
	const nAdam, nReduce = 16384, 4096
	p := nn.NewParam("w", tensor.Randn(rng, 1, nAdam))
	copy(p.Grad.Data(), tensor.Randn(rng, 1, nAdam).Data())
	opt := optim.NewAdamW([]*nn.Param{p}, 0.01)
	g := comm.NewGroup(cluster.NewMachine(cluster.Frontier(), 1, 8).Devices[:2])
	ra, rb := tensor.Randn(rng, 1, nReduce).Data(), tensor.Randn(rng, 1, nReduce).Data()
	d0, d1 := make([]float32, nReduce), make([]float32, nReduce)
	rows := []row{
		{fmt.Sprintf("AdamW/%d", nAdam), nAdam, func() { opt.Step(1e-3) }},
		{fmt.Sprintf("AllReduce2/%d", nReduce), nReduce, func() {
			h0, h1 := g.IAllReduceSum(0, ra, d0), g.IAllReduceSum(1, rb, d1)
			h0.Wait()
			h1.Wait()
		}},
	}
	for _, s := range [][2]int{{32, 64}, {64, 16}, {128, 16}} {
		ln := nn.NewLayerNorm("b", s[1])
		x, dy := tensor.Randn(rng, 1, s[0], s[1]), tensor.Randn(rng, 1, s[0], s[1])
		ln.Forward(x)
		rows = append(rows,
			row{fmt.Sprintf("LayerNormFwd/[%d,%d]", s[0], s[1]), s[0] * s[1], func() { ln.Forward(x) }},
			row{fmt.Sprintf("LayerNormBwd/[%d,%d]", s[0], s[1]), s[0] * s[1], func() { ln.Backward(dy) }})
	}
	for _, s := range [][2]int{{32, 256}, {32, 128}} {
		x, dy := tensor.Randn(rng, 1, s[0], s[1]), tensor.Randn(rng, 1, s[0], s[1])
		out, th := tensor.New(s[0], s[1]), tensor.New(s[0], s[1])
		rows = append(rows,
			row{fmt.Sprintf("GELUFwd/[%d,%d]", s[0], s[1]), s[0] * s[1], func() { tensor.GELUCachedInto(out, th, x) }},
			row{fmt.Sprintf("GELUBwd/[%d,%d]", s[0], s[1]), s[0] * s[1], func() { tensor.GELUBackwardCachedInto(out, x, th, dy) }})
	}
	for _, s := range [][2]int{{128, 32}, {64, 32}} {
		x, dy := tensor.Randn(rng, 1, s[0], s[1]), tensor.Randn(rng, 1, s[0], s[1])
		y, dx := tensor.Softmax(x), tensor.New(s[0], s[1])
		rows = append(rows,
			row{fmt.Sprintf("SoftmaxFwd/[%d,%d]", s[0], s[1]), s[0] * s[1], func() { tensor.SoftmaxInto(y, x) }},
			row{fmt.Sprintf("SoftmaxBwd/[%d,%d]", s[0], s[1]), s[0] * s[1], func() { tensor.SoftmaxBackwardInto(dx, y, dy) }})
	}
	sa, sb, sd, bias := tensor.Randn(rng, 1, 32, 64), tensor.Randn(rng, 1, 32, 64), tensor.New(32, 64), tensor.New(64)
	rows = append(rows,
		row{"AddInto/[32,64]", 32 * 64, func() { tensor.AddInto(sd, sa, sb) }},
		row{"ScaleInPlace/[32,64]", 32 * 64, func() { sd.ScaleInPlace(1) }},
		row{"SumRowsAccInto/[32,64]", 32 * 64, func() { tensor.SumRowsAccInto(bias, sa) }},
		row{"MaxAbs/[32,64]", 32 * 64, func() { sa.MaxAbs() }})
	for _, s := range [][2]int{{64, 64}, {64, 256}} {
		src, dst := tensor.Randn(rng, 1, s[0], s[1]), tensor.New(s[1], s[0])
		rows = append(rows, row{fmt.Sprintf("Transpose/[%d,%d]", s[0], s[1]), s[0] * s[1], func() { tensor.TransposeInto(dst, src) }})
	}
	defer tensor.SetVector(true)
	for _, r := range rows {
		for _, arm := range []string{"scalar", "vector"} {
			b.Run(r.name+"/"+arm, func(b *testing.B) {
				tensor.SetVector(arm == "vector")
				for i := 0; i < b.N; i++ {
					r.call()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.elems), "ns/elem")
			})
		}
	}
}
