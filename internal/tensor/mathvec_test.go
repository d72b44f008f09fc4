package tensor

import (
	"math"
	"testing"
)

// TestVecTranscendentalsMatchScalar pins the exp32 macros
// (mathvec_amd64.h) to the scalar exp32 bit for bit, around the range
// clamps too, through the two kernels that run them: softmaxVec takes
// the non-positive arguments (a row's logits less its maximum 0), down
// to mvc_minarg and one float32 either side of it, −200 and −Inf;
// geluVec takes the positive ones, z = x·(k0 + k1·x²) up to the first
// float32 above mvc_maxarg that any x reaches, and +Inf. A one-ulp
// change to mvc_minarg, or mvc_maxarg moved up, fails here; moved down
// it matches only z = mvc_maxarg itself, which no float32 x produces.
func TestVecTranscendentalsMatchScalar(t *testing.T) {
	if !useFMA {
		t.Skip("vector kernels unavailable on this CPU")
	}
	minarg := float32(-87.3365478515625)
	args := []float32{
		0, -1e-12, -0.1, -1, -3.5, -20, -44, -87, -87.3, -87.4, -200,
		float32(math.Inf(-1)), math.Nextafter32(minarg, 0), minarg, math.Nextafter32(minarg, -100),
	}
	rng := NewRNG(77)
	for i := 0; i < 200; i++ {
		args = append(args, float32(-rng.Float64()*30))
	}
	// Seven arguments to a row after its maximum 0, so the shift is
	// exact and the row sum stays near 1 (e^minarg·1/sum is not 0).
	const cols = 8
	var in []float32
	for i := 0; i < len(args) || len(in)%(4*cols) != 0; i += cols - 1 {
		in = append(in, 0)
		for c := 1; c < cols; c++ {
			in = append(in, args[(i+c-1)%len(args)])
		}
	}
	rows := len(in) / cols
	got, want := make([]float32, len(in)), make([]float32, len(in))
	if n := softmaxRows(got, in, cols, 0, rows); n != rows {
		t.Fatalf("softmaxRows took %d of %d rows", n, rows)
	}
	for r := 0; r < rows; r++ {
		softmaxRow(in[r*cols:(r+1)*cols], want[r*cols:(r+1)*cols])
	}
	for i := range in {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("softmax of logit %v (row %d) = %v (bits %08x), loop %v (bits %08x)",
				in[i], i/cols, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}

	// The float32 x whose exponent z lies within two ulps of mvc_maxarg.
	maxarg := math.Float32bits(88.3762626647949)
	xs := []float32{-3, -5, -7, -9, -10, -10.05, -12, -20, float32(math.Inf(-1))}
	for x := float32(-10.1); x < -10; x = math.Nextafter32(x, 0) {
		if z := math.Float32bits(x * (geluK0 + geluK1*x*x)); z+2 >= maxarg && z <= maxarg+2 {
			xs = append(xs, x)
		}
	}
	for len(xs)%8 != 0 {
		xs = append(xs, float32(-rng.Float64()*30))
	}
	dst, sig := make([]float32, len(xs)), make([]float32, len(xs))
	if n := geluSlice(dst, sig, xs); n != len(xs) {
		t.Fatalf("geluSlice took %d of %d elements", n, len(xs))
	}
	for i, x := range xs {
		s := 1 / (1 + exp32(x*(geluK0+geluK1*x*x)))
		for _, p := range [][2]float32{{sig[i], s}, {dst[i], x * s}} {
			if math.Float32bits(p[0]) != math.Float32bits(p[1]) {
				t.Fatalf("GELU of %v: kernel %v (bits %08x), loop %v (bits %08x)",
					x, p[0], math.Float32bits(p[0]), p[1], math.Float32bits(p[1]))
			}
		}
	}
}
