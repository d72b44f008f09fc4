package tensor

import "testing"

// TestChooseKernels table-tests the CPU decision on the words CPUID and
// XGETBV return: the AVX2+FMA kernels need leaf 1's FMA, OSXSAVE and
// AVX bits, leaf 7's AVX2 bit and XMM and YMM state in XCR0; the wide
// tile also needs leaf 7's AVX-512F bit and the opmask and ZMM state
// (XCR0 bits 5, 6 and 7). Leaf 7's bits count only when the CPU's
// highest basic leaf reaches 7: asked for a leaf above it, CPUID
// returns the highest leaf's data, whose EBX may have those bits set.
func TestChooseKernels(t *testing.T) {
	const (
		leaf1   = 1<<12 | 1<<27 | 1<<28 // FMA, OSXSAVE, AVX
		avx2    = 1 << 5
		avx512f = 1 << 16
		ymm     = 0b110
		zmm     = 0b1110_0110
	)
	for _, c := range []struct {
		name      string
		w         cpuWords
		fma, wide bool
	}{
		{"AVX-512 host", cpuWords{0x20, leaf1, avx2 | avx512f, zmm}, true, true},
		{"AVX2 host", cpuWords{0x16, leaf1, avx2, ymm}, true, false},
		{"AVX-512 with ZMM state off", cpuWords{0x20, leaf1, avx2 | avx512f, ymm}, true, false},
		{"AVX-512 without upper ZMM halves", cpuWords{0x20, leaf1, avx2 | avx512f, ymm | 1<<5 | 1<<6}, true, false},
		{"AVX-512 without opmask state", cpuWords{0x20, leaf1, avx2 | avx512f, ymm | 1<<6 | 1<<7}, true, false},
		{"highest leaf 6, leaf-7 bits set", cpuWords{6, leaf1, avx2 | avx512f, zmm}, false, false},
		{"no FMA", cpuWords{0x20, leaf1 &^ (1 << 12), avx2 | avx512f, zmm}, false, false},
		{"no OSXSAVE", cpuWords{0x20, leaf1 &^ (1 << 27), avx2 | avx512f, 0}, false, false},
		{"no AVX", cpuWords{0x20, leaf1 &^ (1 << 28), avx2 | avx512f, zmm}, false, false},
		{"no AVX2", cpuWords{0x20, leaf1, avx512f, zmm}, false, false},
		{"YMM state off", cpuWords{0x20, leaf1, avx2 | avx512f, 0b010}, false, false},
		{"XMM state off", cpuWords{0x20, leaf1, avx2 | avx512f, 0b1110_0100}, false, false},
	} {
		if fma, wide := chooseKernels(c.w); fma != c.fma || wide != c.wide {
			t.Errorf("%s: chooseKernels(%+v) = %v, %v, want %v, %v", c.name, c.w, fma, wide, c.fma, c.wide)
		}
	}
}
