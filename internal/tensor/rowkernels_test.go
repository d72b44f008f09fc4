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

// Contract of the row kernels (rowvec_amd64.s): each equals, bit for
// bit, the scalar loop it is the vector form of — optim's AdamW update,
// comm's two-rank reduce, nn's LayerNorm forward and backward. The
// loops live in those packages, so every test drives the owner's
// public entry point twice, CPU gate off (the loop alone) and on
// (kernel body, loop tail), and compares bits.

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

// reduceInputs returns two rank buffers of n elements: every pairing of
// the special values (±0, the smallest and largest denormal, ±Inf, NaN,
// ±MaxFloat32) first, magnitudes after.
func reduceInputs(rng *tensor.RNG, n int) (a, b []float32) {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(1), math.Float32frombits(0x007fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32,
	}
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

// BenchmarkRowKernels prints ns per element of the four row loops at
// the bench workloads' sizes, assembly on and off — the one-line
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
