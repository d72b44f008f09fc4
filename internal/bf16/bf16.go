// Package bf16 emulates the BFLOAT16 floating-point format in
// software. The ORBIT paper trains in mixed BFLOAT16 precision on AMD
// GPUs; this package reproduces the format's rounding, range and
// flush-to-zero behaviour bit-accurately so the mixed-precision code
// path (including the dynamic gradient scaler) can be exercised on a
// CPU-only build.
//
// BFLOAT16 is the upper 16 bits of an IEEE-754 float32: 1 sign bit,
// 8 exponent bits, 7 mantissa bits. Conversion from float32 rounds to
// nearest, ties to even, matching hardware behaviour.
package bf16

import (
	"math"

	"orbit/internal/tensor"
)

// BF16 is a bfloat16 value stored as its 16-bit pattern.
type BF16 uint16

// FromFloat32 rounds a float32 to the nearest bfloat16 (ties to even).
// NaN inputs are canonicalized to a quiet NaN.
func FromFloat32(f float32) BF16 {
	bits := math.Float32bits(f)
	if math.IsNaN(float64(f)) {
		return BF16(0x7FC0 | uint16(bits>>16&0x8000))
	}
	// Round to nearest even: add half of the dropped range plus the
	// lowest kept bit.
	rounding := uint32(0x7FFF + (bits>>16)&1)
	return BF16((bits + rounding) >> 16)
}

// Float32 widens a bfloat16 back to float32 (exact).
func (b BF16) Float32() float32 { return math.Float32frombits(uint32(b) << 16) }

// Round performs a float32 → bfloat16 → float32 round trip, i.e. the
// precision loss a bf16 compute unit would introduce.
func Round(f float32) float32 { return FromFloat32(f).Float32() }

// IsInf reports whether the value is ±infinity.
func (b BF16) IsInf() bool { return b&0x7FFF == 0x7F80 }

// IsNaN reports whether the value is a NaN.
func (b BF16) IsNaN() bool { return b&0x7FFF > 0x7F80 }

// MaxValue is the largest finite bfloat16 (same exponent range as
// float32: ~3.39e38).
const MaxValue = 3.3895313892515355e38

// SmallestNormal is the smallest positive normal bfloat16 (~1.18e-38).
const SmallestNormal = 1.1754943508222875e-38

// RoundTensorInPlace rounds every element of t to bf16 precision,
// modelling weights or activations stored in bf16.
func RoundTensorInPlace(t *tensor.Tensor) {
	d := t.Data()
	for i, v := range d {
		d[i] = Round(v)
	}
	t.Bump()
}
