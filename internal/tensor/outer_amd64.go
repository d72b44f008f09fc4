//go:build amd64

package tensor

// The matrix micro-kernel (outer.go) has a hand-written AVX2+FMA
// implementation: twelve 8-lane fused multiply-add accumulators hold a
// 6×16 output block, and its k loop runs two steps per pass. Feature
// support (AVX2, FMA, and OS YMM state) is detected once at startup;
// every machine without it takes the portable scalar loop, which
// remains the reference implementation the property tests compare
// against.

// outerTile6x16 computes one rows×16 block of L@u — L(i, j) =
// t[i*tk + j*tr], u and dst with row strides un and dn — and stores it
// scaled, biased or accumulated; see the kernel in outer_amd64.s and
// its driver product.rows.
//
//go:noescape
func outerTile6x16(dst, t, u *float32, k, tk, tr, un, dn, rows int, mask *int32, bias *float32, scale float32, acc bool)

// cpuHasAVX2FMA reports AVX2+FMA instruction support with OS-enabled
// YMM state (CPUID + XGETBV).
func cpuHasAVX2FMA() bool

// useFMA gates the vector micro-kernel.
var useFMA = cpuHasAVX2FMA()
