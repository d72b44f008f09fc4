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
// equals, bit for bit, the loop it is the vector form of — optim's
// AdamW update, comm's two-rank reduce, nn's LayerNorm forward and
// backward, and this package's GELU, softmax, streaming and transpose
// loops. Those loops live in their owners' packages, so every test
// drives the owner's public entry point twice, CPU gate off (the loop
// alone) and on (kernel body, loop tail), and compares bits. AdamW and
// LayerNorm were float64 loops before they were float32 ones; the old
// loops are kept below (refAdamW, refLayerNormRows, refLayerNormDx) and
// the new ones are held to a stated distance from them.

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

// adamwLengths holds parameter lengths shorter than a vector (loop
// only), lengths that walk through every n%8 tail, and lengths that
// hold many vectors.
var adamwLengths = []int{1, 3, 7, 8, 9, 33, 97, 225, 257, 289, 321, 353, 385, 417, 449, 1000, 4099, 16389}

// adamwState returns n weights, gradients and moments over twelve
// decades: every fifth gradient and every seventh second moment is an
// exact zero (with i%35 == 0: √0 + ε under a zero gradient).
func adamwState(n int) (w, g, m, v []float32) {
	rng := tensor.NewRNG(uint64(n))
	w, g, m, v = magnitudes(rng, n), magnitudes(rng, n), magnitudes(rng, n), magnitudes(rng, n)
	for i := range v {
		v[i] *= v[i]
		if i%5 == 0 {
			g[i] = 0
		}
		if i%7 == 0 {
			v[i] = 0
		}
	}
	return w, g, m, v
}

// adamwStep runs optim.AdamW.Step over one parameter holding w, g, m, v
// with the step count set to steps (so the update is step steps+1) and
// returns the new w, m and v, concatenated.
func adamwStep(w, g, m, v []float32, steps int, lr float64) []float32 {
	n := len(w)
	p := nn.NewParam("w", tensor.FromSlice(append([]float32(nil), w...), n))
	copy(p.Grad.Data(), g)
	opt := optim.NewAdamW([]*nn.Param{p}, 0.01)
	om, ov := opt.Moments()
	copy(om[0].Data(), m)
	copy(ov[0].Data(), v)
	opt.SetStepCount(steps)
	opt.Step(lr)
	out := append([]float32(nil), p.W.Data()...)
	return append(append(out, om[0].Data()...), ov[0].Data()...)
}

// TestAdamWVecMatchesScalar steps one parameter of every length class
// twice (the second Step runs from the state the first one wrote), at
// the first bias correction and one a million steps in, where both
// corrections are 1.
func TestAdamWVecMatchesScalar(t *testing.T) {
	for _, n := range adamwLengths {
		for _, steps := range []int{0, 999999} {
			run := func() []float32 {
				w, g, m, v := adamwState(n)
				out := adamwStep(w, g, m, v, steps, 1e-3)
				return adamwStep(out[:n], g, out[n:2*n], out[2*n:], steps+1, 3e-4)
			}
			scalar, vector := bothWays(t, run)
			sameBits(t, fmt.Sprintf("AdamW n=%d after %d steps (w, m, v)", n, steps), vector, scalar, false)
		}
	}
}

// TestAdamWVecSpecialValues puts every special value in every lane of
// the first two vectors of a 257-element parameter and at its
// one-element tail, in each of w, g, m and v. A NaN there must leave a
// NaN weight under both settings: the guard's sentinel is a NaN that
// survives.
func TestAdamWVecSpecialValues(t *testing.T) {
	const n = 257
	for _, p := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, n - 1} {
		for _, val := range special {
			for k, into := range []string{"w", "g", "m", "v"} {
				w, g, m, v := adamwState(n)
				[][]float32{w, g, m, v}[k][p] = val
				scalar, vector := bothWays(t, func() []float32 { return adamwStep(w, g, m, v, 0, 1e-3) })
				what := fmt.Sprintf("AdamW with %v at %s[%d]", val, into, p)
				sameBits(t, what+" (w, m, v)", vector, scalar, true)
				for _, got := range [][]float32{scalar, vector} {
					if val != val && got[p] == got[p] {
						t.Fatalf("%s: the NaN is gone from the weight: %v", what, got[p])
					}
				}
			}
		}
	}
}

// refAdamW is the AdamW update as a float64 loop, the definition before
// the float32 one: moments and weight widened, the bias corrections
// divided, the results narrowed. It also returns, per element, the
// magnitude each result is a rounding-error multiple of — the sum of
// the absolute values of the terms that make it up, so that a
// cancelling m' = β1·m + (1-β1)·g is measured against its terms.
func refAdamW(w, g, m, v []float32, beta1, beta2, eps, wd, lr float64, step int) (out, scale []float64) {
	n := len(w)
	bc1, bc2 := 1-math.Pow(beta1, float64(step)), 1-math.Pow(beta2, float64(step))
	out, scale = make([]float64, 3*n), make([]float64, 3*n)
	for j := range w {
		gj, wj := float64(g[j]), float64(w[j])
		mj := beta1*float64(m[j]) + (1-beta1)*gj
		vj := beta2*float64(v[j]) + (1-beta2)*gj*gj
		den := math.Sqrt(vj/bc2) + eps
		upd := lr * (mj/bc1/den + wd*wj)
		out[j], out[n+j], out[2*n+j] = float64(float32(wj-upd)), float64(float32(mj)), float64(float32(vj))
		sm := math.Abs(beta1*float64(m[j])) + math.Abs((1-beta1)*gj)
		scale[j] = math.Abs(wj) + lr*(sm/bc1/den+math.Abs(wd*wj))
		scale[n+j], scale[2*n+j] = sm, vj
	}
	return out, scale
}

// TestAdamWFloat32WithinBoundOfFloat64 holds the float32 update to the
// float64 one over the parameters of TestAdamWVecMatchesScalar, one
// step from the same state at step 1 and step 10⁶: every w, m and v is
// within adamwTol of the float64 result, in units of its term magnitude
// (refAdamW). The bound is of order ten roundings of float32 (2⁻²⁴ ≈
// 6e-8 each) over the chain m' → m'·ibc1 → ÷(√(v'·ibc2)+ε) → w - lr·(…).
func TestAdamWFloat32WithinBoundOfFloat64(t *testing.T) {
	const adamwTol = 1e-6
	var worst float64
	for _, n := range adamwLengths {
		for _, steps := range []int{0, 999999} {
			w, g, m, v := adamwState(n)
			got := adamwStep(w, g, m, v, steps, 1e-3)
			want, scale := refAdamW(w, g, m, v, 0.9, 0.999, 1e-8, 0.01, 1e-3, steps+1)
			for i := range got {
				if scale[i] == 0 {
					if got[i] != 0 || want[i] != 0 {
						t.Fatalf("AdamW n=%d step %d: element %d is %v, float64 loop %v, both terms zero", n, steps+1, i, got[i], want[i])
					}
					continue
				}
				e := math.Abs(float64(got[i])-want[i]) / scale[i]
				worst = max(worst, e)
				if e > adamwTol {
					t.Fatalf("AdamW n=%d step %d: element %d (of w, m, v) is %v, float64 loop %v: %.3g of its term magnitude %v, bound %g",
						n, steps+1, i, got[i], want[i], e, scale[i], adamwTol)
				}
			}
		}
	}
	t.Logf("AdamW: largest distance from the float64 loop %.3g of the term magnitude (bound %g)", worst, adamwTol)
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

// lnInput returns a [rows, dim] LayerNorm input of scale 3 whose row 0
// is constant (variance exactly 0) and whose row 1, where there is one,
// sits at 100 (a mean 33 of its standard deviations from zero).
func lnInput(rng *tensor.RNG, rows, dim int) []float32 {
	x := tensor.Randn(rng, 3, rows, dim).Data()
	for c := 0; c < dim; c++ {
		x[c] = 1.5
		if rows > 1 {
			x[dim+c] += 100
		}
	}
	return x
}

// TestLayerNormRowsVecMatchesScalar sweeps every width 1…80 (a width
// that is not a multiple of 8 takes the loop under either setting) and
// 1…13 rows, over the whole block and over an inner range of it: the
// four-row groups, the one- to three-row tail, and the rows outside
// [r0, r1), which must keep their sentinels. Each is run with both
// caches, with neither, and with xhat aliasing out.
func TestLayerNormRowsVecMatchesScalar(t *testing.T) {
	rng := tensor.NewRNG(81)
	for dim := 1; dim <= 80; dim++ {
		for rows := 1; rows <= 13; rows++ {
			x := lnInput(rng, rows, dim)
			gamma, beta := tensor.Randn(rng, 1, dim).Data(), tensor.Randn(rng, 1, dim).Data()
			r0 := rng.Intn(rows)
			r1 := r0 + 1 + rng.Intn(rows-r0)
			for _, r := range [][2]int{{0, rows}, {r0, r1}} {
				for _, mode := range []string{"caches", "bare", "alias"} {
					run := func() []float32 {
						out, xhat, rstd := sentinel(rows*dim), sentinel(rows*dim), sentinel(rows)
						switch mode {
						case "bare":
							nn.LayerNormRows(out, nil, nil, x, gamma, beta, 1e-5, r[0], r[1])
						case "alias":
							nn.LayerNormRows(out, out, rstd, x, gamma, beta, 1e-5, r[0], r[1])
						default:
							nn.LayerNormRows(out, xhat, rstd, x, gamma, beta, 1e-5, r[0], r[1])
						}
						return append(append(out, rstd...), xhat...)
					}
					scalar, vector := bothWays(t, run)
					sameBits(t, fmt.Sprintf("LayerNormRows [%d,%d] rows %v %s (out, rstd, xhat)", rows, dim, r, mode), vector, scalar, false)
				}
			}
		}
	}
}

// lnBackwardRows lists the row counts the backward tests take: 1…13,
// and counts in every regime of the dγ/dβ runs — one, two and four rows
// per run (32, 64, 128 rows) and short last runs.
var lnBackwardRows = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 31, 32, 33, 64, 65, 100, 128, 130, 259}

// lnBackward runs LayerNorm forward over x, then backward twice (dy1,
// dy2) from a nonzero dγ/dβ, and returns dx, dx, dγ, dβ.
func lnBackward(x, dy1, dy2 *tensor.Tensor, gamma, beta, seed []float32) []float32 {
	dim := len(gamma)
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

// TestLayerNormBackwardVecMatchesScalar compares dx, dγ and dβ of the
// module's backward over every width 1…80 (the input gradient takes
// groups of four rows of whole eight-lane vectors, the parameter
// gradients the leading eight-column blocks) and lnBackwardRows. The
// gradients take two backward passes, so the += is covered.
func TestLayerNormBackwardVecMatchesScalar(t *testing.T) {
	rng := tensor.NewRNG(82)
	for dim := 1; dim <= 80; dim++ {
		for _, rows := range lnBackwardRows {
			x := tensor.FromSlice(lnInput(rng, rows, dim), rows, dim)
			dy1, dy2 := tensor.Randn(rng, 1, rows, dim), tensor.Randn(rng, 1e-3, rows, dim)
			gamma, beta := tensor.Randn(rng, 1, dim).Data(), tensor.Randn(rng, 1, dim).Data()
			seed := tensor.Randn(rng, 1, 2*dim).Data()
			scalar, vector := bothWays(t, func() []float32 { return lnBackward(x, dy1, dy2, gamma, beta, seed) })
			sameBits(t, fmt.Sprintf("LayerNorm backward [%d,%d] (dx, dx, dγ, dβ)", rows, dim), vector, scalar, false)
		}
	}
}

// TestLayerNormVecSpecialValues puts every special value at every
// position of a [5,16] block (two vectors a row) and of a [3,12] one
// (the loop under either setting), in x, in dy and in γ, and runs the
// module forward and backward. A NaN in a row of x must turn that row
// of the output and of dx into NaN, and a NaN in dy that row of dx,
// under both settings.
func TestLayerNormVecSpecialValues(t *testing.T) {
	rng := tensor.NewRNG(86)
	for _, s := range [][2]int{{5, 16}, {3, 12}} {
		rows, dim := s[0], s[1]
		for p := 0; p < rows*dim; p++ {
			for _, v := range special {
				for _, into := range []string{"x", "dy", "gamma"} {
					x, dy := tensor.Randn(rng, 3, rows, dim), tensor.Randn(rng, 1, rows, dim)
					gamma, beta, seed := tensor.Randn(rng, 1, dim).Data(), tensor.Randn(rng, 1, dim).Data(), make([]float32, 2*dim)
					switch into {
					case "x":
						x.Data()[p] = v
					case "dy":
						dy.Data()[p] = v
					default:
						gamma[p%dim] = v
					}
					run := func() []float32 {
						ln := nn.NewLayerNorm("t", dim)
						copy(ln.Gamma.W.Data(), gamma)
						copy(ln.Beta.W.Data(), beta)
						out := append([]float32(nil), ln.Forward(x).Data()...)
						return append(out, lnBackward(x, dy, dy, gamma, beta, seed)...)
					}
					scalar, vector := bothWays(t, run)
					what := fmt.Sprintf("LayerNorm [%d,%d] with %v at %s[%d]", rows, dim, v, into, p)
					sameBits(t, what+" (out, dx, dx, dγ, dβ)", vector, scalar, true)
					row := p / dim * dim
					for _, got := range [][]float32{scalar, vector} {
						for c := row; c < row+dim && v != v && into != "gamma"; c++ {
							if o, d := got[c], got[rows*dim+c]; (into == "x" && o == o) || d == d {
								t.Fatalf("%s: output %v, dx %v at column %d of the row, want NaN", what, o, d, c-row)
							}
						}
					}
				}
			}
		}
	}
}

// refLayerNormRows is the LayerNorm forward as a float64 loop, the
// definition before the float32 one: sequential float64 sums along the
// row, x̂ rounded to float32 before the affine step. It returns out,
// x̂ and 1/σ.
func refLayerNormRows(x, gamma, beta []float32, eps float64, rows int) (out, xhat []float32, rstd []float64) {
	dim := len(gamma)
	out, xhat, rstd = make([]float32, rows*dim), make([]float32, rows*dim), make([]float64, rows)
	for r := 0; r < rows; r++ {
		xr := x[r*dim : (r+1)*dim]
		var mean float64
		for _, v := range xr {
			mean += float64(v)
		}
		mean /= float64(dim)
		var variance float64
		for _, v := range xr {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(dim)
		rstd[r] = 1 / math.Sqrt(variance+eps)
		for c, v := range xr {
			h := float32((float64(v) - mean) * rstd[r])
			xhat[r*dim+c] = h
			out[r*dim+c] = h*gamma[c] + beta[c]
		}
	}
	return out, xhat, rstd
}

// refLayerNormDx is the LayerNorm input gradient as a float64 loop, the
// definition before the float32 one, from the same x̂ and 1/σ. It also
// returns each element's term magnitude rstd·(|d| + Σ|d|/dim +
// |x̂|·Σ|d·x̂|/dim), d = dy·γ.
func refLayerNormDx(dy, xhat, gamma, rstd []float32) (dx, scale []float64) {
	dim, rows := len(gamma), len(rstd)
	dx, scale = make([]float64, rows*dim), make([]float64, rows*dim)
	invD := 1 / float64(dim)
	for r := 0; r < rows; r++ {
		var sumD, sumDH, absD, absDH float64
		for c := 0; c < dim; c++ {
			d := float64(dy[r*dim+c]) * float64(gamma[c])
			sumD += d
			sumDH += d * float64(xhat[r*dim+c])
			absD += math.Abs(d)
			absDH += math.Abs(d * float64(xhat[r*dim+c]))
		}
		rs, a, b := float64(rstd[r]), invD*sumD, invD*sumDH
		for c := 0; c < dim; c++ {
			d, h := float64(dy[r*dim+c])*float64(gamma[c]), float64(xhat[r*dim+c])
			dx[r*dim+c] = float64(float32(rs * (d - a - h*b)))
			scale[r*dim+c] = rs * (math.Abs(d) + invD*absD + math.Abs(h)*invD*absDH)
		}
	}
	return dx, scale
}

// within fails when got, element i of what's part, is farther than
// tol·scale from want, and returns the distance in units of scale.
func within(t *testing.T, what, part string, i int, got float32, want, scale, tol float64) float64 {
	e := math.Abs(float64(got) - want)
	if e == 0 {
		return 0
	}
	if e /= scale; !(e <= tol) {
		t.Helper()
		t.Fatalf("%s%s[%d] is %v, float64 loop %v: %.3g of its scale %v, bound %g", what, part, i, got, want, e, scale, tol)
	}
	return e
}

// TestLayerNormFloat32WithinBoundOfFloat64 holds the float32 forward and
// input gradient to the float64 loops over every width 1…80 with
// lnBackwardRows rows, constant and offset rows included (lnInput). The bound, lnTol, is in units of each
// result's error scale: 1/σ for rstd; for x̂, |x̂| + (Σ|x|/dim)·rstd —
// the second term is the float32 mean's error, which a row far from
// zero carries into every x̂ of the row; for out, |γ| times x̂'s plus
// |β|; for dx, refLayerNormDx's term magnitude. The float32 sums take
// ⌈dim/8⌉ + 3 roundings along each lane and the tree.
func TestLayerNormFloat32WithinBoundOfFloat64(t *testing.T) {
	const lnTol = 1e-6
	rng := tensor.NewRNG(87)
	var worstFwd, worstBwd float64
	for dim := 1; dim <= 80; dim++ {
		for _, rows := range lnBackwardRows {
			x := lnInput(rng, rows, dim)
			gamma, beta := tensor.Randn(rng, 1, dim).Data(), tensor.Randn(rng, 1, dim).Data()
			out, xhat, rstd := make([]float32, rows*dim), make([]float32, rows*dim), make([]float32, rows)
			nn.LayerNormRows(out, xhat, rstd, x, gamma, beta, 1e-5, 0, rows)
			wantOut, wantHat, wantRstd := refLayerNormRows(x, gamma, beta, 1e-5, rows)
			what := fmt.Sprintf("LayerNorm [%d,%d] ", rows, dim)
			for r := 0; r < rows; r++ {
				var m1 float64
				for _, v := range x[r*dim : (r+1)*dim] {
					m1 += math.Abs(float64(v)) / float64(dim)
				}
				worstFwd = max(worstFwd, within(t, what, "rstd", r, rstd[r], wantRstd[r], wantRstd[r], lnTol))
				for c := 0; c < dim; c++ {
					i := r*dim + c
					sh := math.Abs(float64(wantHat[i])) + m1*wantRstd[r]
					worstFwd = max(worstFwd, within(t, what, "x̂", i, xhat[i], float64(wantHat[i]), sh, lnTol))
					so := math.Abs(float64(gamma[c]))*sh + math.Abs(float64(beta[c]))
					worstFwd = max(worstFwd, within(t, what, "out", i, out[i], float64(wantOut[i]), so, lnTol))
				}
			}

			// The module's dx from these caches: its forward is this
			// LayerNormRows call, bit for bit.
			ln := nn.NewLayerNorm("t", dim)
			copy(ln.Gamma.W.Data(), gamma)
			copy(ln.Beta.W.Data(), beta)
			xt, dy := tensor.FromSlice(x, rows, dim), tensor.Randn(rng, 1, rows, dim)
			ln.Forward(xt)
			dx := ln.Backward(dy).Data()
			wantDx, scale := refLayerNormDx(dy.Data(), xhat, gamma, rstd)
			for i := range dx {
				if scale[i] > 0 {
					worstBwd = max(worstBwd, within(t, what, "dx", i, dx[i], wantDx[i], scale[i], lnTol))
				}
			}
		}
	}
	t.Logf("LayerNorm: largest distance from the float64 loops %.3g (forward), %.3g (dx) of the error scale (bound %g)", worstFwd, worstBwd, lnTol)
}

// geluInputs returns n pre-activations: twelve decades of either sign,
// a grid over [-12, 12], and ulp-by-ulp walks across the two inputs at
// which the exponent z = −2·√(2/π)·(x + 0.044715·x³) crosses exp32's
// clamps: z = 88.376… at x ≈ −10.1, z = −87.337… at x ≈ 10.0.
func geluInputs(rng *tensor.RNG, n int) []float32 {
	x := magnitudes(rng, n)
	for i := 0; i < n/4; i++ {
		x[i] = float32(24*rng.Float64() - 12)
	}
	at := n / 4
	for _, edge := range []struct {
		z    float64
		sign float32
	}{{88.3762626647949, -1}, {87.3365478515625, 1}} {
		lo, hi := 0.0, 16.0
		for k := 0; k < 60; k++ {
			if mid := (lo + hi) / 2; 2*0.7978845608028654*(mid+0.044715*mid*mid*mid) < edge.z {
				lo = mid
			} else {
				hi = mid
			}
		}
		v := edge.sign * float32(lo)
		for k := 0; k < 100; k++ {
			v = math.Nextafter32(v, 0)
		}
		for k := 0; k < 200 && at < n; k++ {
			x[at] = v
			v = math.Nextafter32(v, edge.sign*float32(math.Inf(1)))
			at++
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
// to five vectors) and a 4 099-element tensor (512 vectors and a
// three-element tail); then every special value
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
		sameBits(t, fmt.Sprintf("GELU n=%d (out, σ, in place, dx)", n), vector, scalar, false)
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
				sameBits(t, what+" (out, σ, in place, dx)", vector, scalar, true)
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
// larger shapes. Row 0 is constant (every
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

// BenchmarkRowKernels prints ns per element of the row loops (AdamW,
// the two-rank reduce, LayerNorm) and of the float32 elementwise loops at the bench workloads' sizes
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
		y, dx := tensor.SoftmaxInto(tensor.New(s[0], s[1]), x), tensor.New(s[0], s[1])
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
