//go:build amd64

package tensor

// The matrix micro-kernel (outer.go) has two hand-written tiles: the
// AVX2+FMA outerTile6x16, twelve 8-lane fused multiply-add accumulators
// holding a 6×16 output block, and the AVX-512 outerTile8x32, sixteen
// 16-lane ones holding an 8×32 block. Both compute every output
// element's bits alike. Feature support (CPUID, and XGETBV for the
// register state the OS saves) is read once at startup: a CPU with
// AVX-512F runs the wide tile, one with AVX2 and FMA the 6×16 one, and
// any other the portable loop, which remains the reference
// implementation the property tests compare against.

// outerTile6x16 computes one rows×16 block of L@u — L(i, j) =
// t[i*tk + j*tr], u and dst with row strides un and dn — and stores it
// scaled, biased or accumulated; see the kernel in outer_amd64.s and
// its driver product.rows.
//
//go:noescape
func outerTile6x16(dst, t, u *float32, k, tk, tr, un, dn, rows int, mask *int32, bias *float32, scale float32, acc bool)

// outerTile8x32 is outerTile6x16 on a rows×32 block, rows up to 8.
//
//go:noescape
func outerTile8x32(dst, t, u *float32, k, tk, tr, un, dn, rows int, mask *int32, bias *float32, scale float32, acc bool)

// cpuid executes CPUID for a leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0; only valid where CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// hostCPU reads the words chooseKernels decides from. Reading leaf 7
// is harmless on a CPU without it; chooseKernels ignores the answer.
// XGETBV is only executed where OSXSAVE says it exists.
func hostCPU() cpuWords {
	var w cpuWords
	w.maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, w.ecx1, _ = cpuid(1, 0)
	_, w.ebx7, _, _ = cpuid(7, 0)
	if w.ecx1&(1<<27) != 0 {
		lo, hi := xgetbv()
		w.xcr0 = uint64(hi)<<32 | uint64(lo)
	}
	return w
}

// useFMA gates every assembly kernel; useWide picks the matrix tile.
var useFMA, useWide = chooseKernels(hostCPU())
