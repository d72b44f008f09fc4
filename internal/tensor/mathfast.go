package tensor

import "math"

// The fast float32 exponential of the softmax and GELU hot loops: a
// Cephes-style range-reduced polynomial with relative error around
// 1e-7 that costs a handful of multiply-adds instead of a float64
// library call per element.

const (
	expC1 = 0.693359375     // ln2 high part
	expC2 = -2.12194440e-4  // ln2 low part
	expP0 = 1.9875691500e-4 // degree-5 minimax polynomial for e^r
	expP1 = 1.3981999507e-3
	expP2 = 8.3334519073e-3
	expP3 = 4.1665795894e-2
	expP4 = 1.6666665459e-1
	expP5 = 5.0000001201e-1
)

// exp32 returns e^x for float32 x, clamping to the finite range.
func exp32(x float32) float32 {
	if x > 88.3762626647949 {
		return math.MaxFloat32
	}
	if x < -87.3365478515625 {
		return 0
	}
	// n = round(x / ln2); r = x - n·ln2 via split constants.
	nf := float32(math.Floor(float64(x*1.44269504088896341 + 0.5)))
	r := x - nf*expC1 - nf*expC2
	// e^r on |r| <= ln2/2 by Horner evaluation.
	p := float32(expP0)
	p = p*r + expP1
	p = p*r + expP2
	p = p*r + expP3
	p = p*r + expP4
	p = p*r + expP5
	p = p*r*r + r + 1
	// Scale by 2^n through the exponent bits.
	return p * math.Float32frombits(uint32(int32(nf)+127)<<23)
}
