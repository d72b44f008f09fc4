package tensor

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

// TestUseFMAMatchesCPUInfo holds the kernel gate to the kernel's own
// view of the CPU: when /proc/cpuinfo lists avx2 and fma, useFMA must
// be on. A detection bug that turned it off would leave every vector
// kernel untested, since each vector-versus-portable property test
// would compare the portable loop with itself and pass.
func TestUseFMAMatchesCPUInfo(t *testing.T) {
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
		if flags["avx2"] && flags["fma"] && !useFMA {
			t.Fatal("/proc/cpuinfo lists avx2 and fma, but useFMA is false: the vector kernels are never run")
		}
		return
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading /proc/cpuinfo: %v", err)
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
