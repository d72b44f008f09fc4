//go:build amd64

package tensor

// The hot dot-product micro-kernel has a hand-written AVX2+FMA
// implementation: eight 8-lane fused multiply-add accumulators cover
// the same 2×4 output block as the scalar kernel at eight elements per
// instruction. The k-major outer-product kernel (outer.go) has one
// too: eight accumulators hold a 4×16 output block. Feature support (AVX2, FMA, and OS YMM state) is
// detected once at startup; every machine without it — and every
// reduction shorter than one vector — takes the portable scalar path,
// which remains the reference implementation the property tests
// compare against.

// dotBlock2x4 accumulates sums[j] = Σ_i a0[i]·b_j[i] and
// sums[4+j] = Σ_i a1[i]·b_j[i] for the four contiguous bt rows
// b_j = b[j·k : j·k+k], processing the first k&^7 elements. The caller
// adds the scalar tail.
//
//go:noescape
func dotBlock2x4(a0, a1, b *float32, k int, sums *[8]float32)

// dotBlock1x4 is the single-row variant.
//
//go:noescape
func dotBlock1x4(a0, b *float32, k int, sums *[4]float32)

// outerTile4x16 computes one rows×16 block of L@u — L(i, j) =
// t[i*tk + j*tr], u and dst with row strides un and dn — and stores it
// scaled, biased or accumulated; see the kernel in outer_amd64.s and
// its driver product.rows.
//
//go:noescape
func outerTile4x16(dst, t, u *float32, k, tk, tr, un, dn, rows int, mask *int32, bias *float32, scale float32, acc bool)

// cpuHasAVX2FMA reports AVX2+FMA instruction support with OS-enabled
// YMM state (CPUID + XGETBV).
func cpuHasAVX2FMA() bool

// useFMA gates the vector micro-kernel.
var useFMA = cpuHasAVX2FMA()
