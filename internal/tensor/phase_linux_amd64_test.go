package tensor

import (
	"debug/elf"
	"debug/gosym"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestKernelsStartOnCacheLines holds every assembly kernel of this
// package to a 64-byte boundary. A loop's speed depends on its address
// mod 64, so a kernel the linker could place at either phase would let
// unrelated code added before it move its speed (PERFORMANCE.md,
// "Reading and reproducing the benchmark reports"). `PCALIGN $64` at
// the head of a hot loop also aligns the function; a kernel added
// without one fails here. The kernels are the TEXT symbols of the
// *_amd64.s files, except cpu_amd64.s, whose CPUID reads run once.
//
// The addresses come from the binary's Go symbol table (.gopclntab):
// `go test` links without the ELF symbol table, and the Go table names
// an assembly body and its Go-ABI wrapper alike, so a body is told by
// its source file.
func TestKernelsStartOnCacheLines(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("executable: %v", err)
	}
	f, err := elf.Open(exe)
	if err != nil {
		t.Skipf("reading the test binary: %v", err)
	}
	defer f.Close()
	pcln, text := f.Section(".gopclntab"), f.Section(".text")
	if pcln == nil || text == nil {
		t.Skip("stripped binary: no Go symbol table")
	}
	data, err := pcln.Data()
	if err != nil {
		t.Fatalf(".gopclntab: %v", err)
	}
	tab, err := gosym.NewTable(nil, gosym.NewLineTable(data, text.Addr))
	if err != nil {
		t.Fatalf("symbol table: %v", err)
	}
	entry := map[string]uint64{} // kernel name → address of its body
	for _, fn := range tab.Funcs {
		name, ok := strings.CutPrefix(fn.Name, "orbit/internal/tensor.")
		if file, _, _ := tab.PCToLine(fn.Entry); ok && strings.HasSuffix(file, "_amd64.s") {
			entry[name] = fn.Entry
		}
	}
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly files found (%v)", err)
	}
	textSym := regexp.MustCompile(`(?m)^TEXT ·(\w+)\(SB\)`)
	kernels := 0
	for _, file := range files {
		if file == "cpu_amd64.s" {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range textSym.FindAllSubmatch(src, -1) {
			name := string(m[1])
			a, ok := entry[name]
			switch {
			case !ok:
				t.Errorf("%s: %s is not in the test binary", file, name)
			case a%64 != 0:
				t.Errorf("%s: %s starts at %#x ≡ %d (mod 64); put PCALIGN $64 at the head of its hot loop", file, name, a, a%64)
			}
			kernels++
		}
	}
	t.Logf("%d kernels checked", kernels)
}
