package quant

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randWeight(rng *rand.Rand, rows, cols int) []float32 {
	w := make([]float32, rows*cols)
	for i := range w {
		w[i] = float32(rng.NormFloat64()) * 0.1
	}
	return w
}

// rmsError returns the relative RMS reconstruction error of a
// quantize→dequantize round trip.
func rmsError(w []float32, q *Quantized, rows, cols int) float64 {
	back := make([]float32, rows*cols)
	q.DequantizeInto(back)
	var num, den float64
	for i := range w {
		d := float64(w[i] - back[i])
		num += d * d
		den += float64(w[i]) * float64(w[i])
	}
	return math.Sqrt(num / den)
}

// TestRoundTripAccuracy pins the reconstruction error of both formats
// on Gaussian weights: int8 resolves 127 levels per block half-range,
// Q4_0 resolves 8, so the relative RMS error is about 16x apart.
func TestRoundTripAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rows, cols = 96, 64
	w := randWeight(rng, rows, cols)
	i8 := rmsError(w, Quantize(w, rows, cols, Int8), rows, cols)
	q4 := rmsError(w, Quantize(w, rows, cols, Q4_0), rows, cols)
	if i8 > 0.008 {
		t.Errorf("int8 relative RMS error %.4f, want <= 0.008", i8)
	}
	if q4 > 0.12 {
		t.Errorf("q4_0 relative RMS error %.4f, want <= 0.12", q4)
	}
	if i8 >= q4 {
		t.Errorf("int8 error %.4f not tighter than q4_0 %.4f", i8, q4)
	}
}

// TestStorageCost pins the bytes/param of real containers to the
// formats' rates (one float32 scale per Block elements): Q4_0 is 6.4x
// smaller than f32.
func TestStorageCost(t *testing.T) {
	const rows, cols = 64, 32
	w := randWeight(rand.New(rand.NewSource(2)), rows, cols)
	for kind, want := range map[Kind]float64{Int8: 1.125, Q4_0: 0.625} {
		q := Quantize(w, rows, cols, kind)
		if got := float64(q.Bytes()) / float64(rows*cols); got != want {
			t.Errorf("%s: %.4f bytes/param, want %.4f", kind, got, want)
		}
	}
}

// TestPartialBlocks exercises rows that are not a multiple of Block:
// the final partial block must round-trip its real elements and the
// padding nibbles must not perturb anything.
func TestPartialBlocks(t *testing.T) {
	for _, rows := range []int{1, 7, Block - 1, Block + 1, 2*Block + 5} {
		w := randWeight(rand.New(rand.NewSource(int64(rows))), rows, 3)
		for _, kind := range []Kind{Int8, Q4_0} {
			q := Quantize(w, rows, 3, kind)
			if got, want := len(q.Data()), DataLen(kind, rows, 3); got != want {
				t.Fatalf("rows=%d %s: data length %d, want %d", rows, kind, got, want)
			}
			back := make([]float32, rows*3)
			q.DequantizeInto(back)
			for i := range back {
				if math.IsNaN(float64(back[i])) {
					t.Fatalf("rows=%d %s: NaN at %d after round trip", rows, kind, i)
				}
			}
		}
	}
}

// TestZeroBlock: an all-zero block stores scale 0 and dequantizes to
// exact zeros for both formats.
func TestZeroBlock(t *testing.T) {
	w := make([]float32, Block*2)
	for _, kind := range []Kind{Int8, Q4_0} {
		q := Quantize(w, Block*2, 1, kind)
		back := make([]float32, Block*2)
		q.DequantizeInto(back)
		for i, v := range back {
			if v != 0 {
				t.Fatalf("%s: zero weight dequantized to %g at %d", kind, v, i)
			}
		}
	}
}

// TestQ4ExtremeValue: the largest-magnitude value in a block maps to
// the widest code and reconstructs exactly (d = maxv/-8, code 0).
func TestQ4ExtremeValue(t *testing.T) {
	w := make([]float32, Block)
	w[3] = -1.6
	q := Quantize(w, Block, 1, Q4_0)
	back := make([]float32, Block)
	q.DequantizeInto(back)
	if back[3] != -1.6 {
		t.Errorf("extreme value reconstructed as %g, want -1.6 exactly", back[3])
	}
}

// TestDequantPanels: a range of panels reconstructs as those columns
// of the full matrix, row-major.
func TestDequantPanels(t *testing.T) {
	const rows, cols = 40, 9
	w := randWeight(rand.New(rand.NewSource(3)), rows, cols)
	q := Quantize(w, rows, cols, Int8)
	full := make([]float32, rows*cols)
	q.DequantizeInto(full)
	panels := make([]float32, 4*rows)
	q.DequantPanelsInto(panels, 2, 6)
	for c := 2; c < 6; c++ {
		for i := 0; i < rows; i++ {
			if got, want := panels[i*4+c-2], full[i*cols+c]; got != want {
				t.Fatalf("panel %d element %d: %g, full matrix says %g", c, i, got, want)
			}
		}
	}
}

func TestFromPartsValidation(t *testing.T) {
	const rows, cols = Block, 4
	good := Quantize(randWeight(rand.New(rand.NewSource(4)), rows, cols), rows, cols, Q4_0)
	cases := []struct {
		name   string
		kind   Kind
		r, c   int
		data   []byte
		scales []float32
		substr string
	}{
		{"bad kind", 9, rows, cols, good.Data(), good.Scales(), "invalid kind"},
		{"zero rows", Q4_0, 0, cols, good.Data(), good.Scales(), "invalid shape"},
		{"negative cols", Q4_0, rows, -1, good.Data(), good.Scales(), "invalid shape"},
		{"short data", Q4_0, rows, cols, good.Data()[:1], good.Scales(), "data length"},
		{"long data", Q4_0, rows, cols, append([]byte{0}, good.Data()...), good.Scales(), "data length"},
		{"short scales", Q4_0, rows, cols, good.Data(), good.Scales()[:1], "block scales"},
		{"nan scale", Q4_0, rows, cols, good.Data(), []float32{1, float32(math.NaN()), 1, 1}, "not finite"},
		{"inf scale", Q4_0, rows, cols, good.Data(), []float32{1, float32(math.Inf(1)), 1, 1}, "not finite"},
	}
	for _, tc := range cases {
		if _, err := FromParts(tc.kind, tc.r, tc.c, tc.data, tc.scales); err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.substr)
		}
	}
	q, err := FromParts(Q4_0, rows, cols, good.Data(), good.Scales())
	if err != nil {
		t.Fatalf("valid parts rejected: %v", err)
	}
	a, b := make([]float32, rows*cols), make([]float32, rows*cols)
	q.DequantizeInto(a)
	good.DequantizeInto(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("FromParts container diverges from Quantize at %d", i)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if Int8.String() != "int8" || Q4_0.String() != "q4_0" {
		t.Errorf("kind strings: %s, %s", Int8, Q4_0)
	}
	if s := Kind(7).String(); !strings.Contains(s, "7") {
		t.Errorf("unknown kind string %q", s)
	}
	if Kind(0).Valid() || Kind(7).Valid() {
		t.Error("invalid kinds report Valid")
	}
	for in, want := range map[string]Kind{"int8": Int8, "i8": Int8, "q4": Q4_0, "q4_0": Q4_0} {
		if k, err := ParseKind(in); err != nil || k != want {
			t.Errorf("ParseKind(%q) = %v, %v", in, k, err)
		}
	}
	if _, err := ParseKind("fp8"); err == nil {
		t.Error("ParseKind accepted fp8")
	}
}

func TestGeometryHelpers(t *testing.T) {
	if BlocksPerPanel(1) != 1 || BlocksPerPanel(Block) != 1 || BlocksPerPanel(Block+1) != 2 {
		t.Error("BlocksPerPanel off")
	}
	if PanelBytes(Int8, 33) != 33 || PanelBytes(Q4_0, 33) != 32 || PanelBytes(Kind(9), 33) != 0 {
		t.Error("PanelBytes off")
	}
	if ScalesLen(Block+1, 3) != 6 {
		t.Error("ScalesLen off")
	}
}

// TestPanics pins the guard panics on misuse.
func TestPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	q := Quantize(make([]float32, Block*2), Block, 2, Int8)
	expectPanic("Quantize bad kind", func() { Quantize(make([]float32, 4), 2, 2, Kind(9)) })
	expectPanic("Quantize bad len", func() { Quantize(make([]float32, 3), 2, 2, Int8) })
	expectPanic("DequantPanelsInto range", func() { q.DequantPanelsInto(make([]float32, Block), 1, 3) })
	expectPanic("DequantPanelsInto short dst", func() { q.DequantPanelsInto(make([]float32, 1), 0, 2) })
	expectPanic("DequantizeInto short dst", func() { q.DequantizeInto(make([]float32, 1)) })
}
