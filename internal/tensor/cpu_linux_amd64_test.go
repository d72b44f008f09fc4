package tensor

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

// cpuinfoFlags returns the flags /proc/cpuinfo lists for the first CPU,
// skipping the test where there are none to read.
func cpuinfoFlags(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cpuinfo: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, list, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		flags := map[string]bool{}
		for _, fl := range strings.Fields(list) {
			flags[fl] = true
		}
		return flags
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading /proc/cpuinfo: %v", err)
	}
	t.Skip("/proc/cpuinfo has no flags line")
	return nil
}

// TestUseFMAMatchesCPUInfo holds the kernel gate to the kernel's own
// view of the CPU: when /proc/cpuinfo lists avx2 and fma, useFMA must
// be on. A detection bug that turned it off would leave every vector
// kernel untested, since each vector-versus-portable property test
// would compare the portable loop with itself and pass.
func TestUseFMAMatchesCPUInfo(t *testing.T) {
	if flags := cpuinfoFlags(t); flags["avx2"] && flags["fma"] && !useFMA {
		t.Fatal("/proc/cpuinfo lists avx2 and fma, but useFMA is false: the vector kernels are never run")
	}
}

// TestWideTileMatchesCPUInfo is its counterpart for the matrix tile:
// when /proc/cpuinfo lists avx512f (which Linux shows only where the OS
// saves the ZMM state), the matrix kernel must run the 8×32 tile. A
// detection bug that missed it would leave the wide tile untested, the
// tile differential skipped and every per-tile test running the 6×16
// tile alone.
func TestWideTileMatchesCPUInfo(t *testing.T) {
	flags := cpuinfoFlags(t)
	if flags["avx512f"] && flags["avx2"] && flags["fma"] && (!useWide || outer.cols != tile8x32.cols) {
		t.Fatalf("/proc/cpuinfo lists avx512f, but useWide is %v and the tile is %v", useWide, outer)
	}
}
