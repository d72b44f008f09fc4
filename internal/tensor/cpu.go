package tensor

// cpuWords are the CPUID and XCR0 words the kernels are chosen from.
type cpuWords struct {
	maxLeaf uint32 // CPUID leaf 0 EAX: the highest basic leaf
	ecx1    uint32 // CPUID leaf 1 ECX: FMA (bit 12), OSXSAVE (27), AVX (28)
	ebx7    uint32 // CPUID leaf 7, subleaf 0, EBX: AVX2 (bit 5), AVX-512F (16)
	xcr0    uint64 // XGETBV 0: the register state the OS saves
}

// chooseKernels reports whether the CPU described by w runs the AVX2+FMA
// kernels (fma) and the AVX-512 matrix tile (wide). Leaf 7 counts only
// where the CPU has it: asked for a leaf above its highest, CPUID
// answers with the highest leaf's data. YMM registers need the OS to
// save XMM and YMM state (XCR0 bits 1 and 2), ZMM ones the opmask and
// both upper ZMM halves as well (bits 5, 6 and 7).
func chooseKernels(w cpuWords) (fma, wide bool) {
	const (
		leaf1 = 1<<12 | 1<<27 | 1<<28
		ymm   = 1<<1 | 1<<2
		zmm   = ymm | 1<<5 | 1<<6 | 1<<7
	)
	if w.maxLeaf < 7 || w.ecx1&leaf1 != leaf1 || w.xcr0&ymm != ymm {
		return false, false
	}
	fma = w.ebx7&(1<<5) != 0
	return fma, fma && w.ebx7&(1<<16) != 0 && w.xcr0&zmm == zmm
}
