package tensor

import (
	"fmt"
	"testing"
)

// The external tests of this directory run the row loops of nn, optim
// and comm with the assembly kernels on and off (rowkernels_test.go);
// those packages import this one, so only an external test package can
// hold them, and this is how it reaches the CPU gate.

// HostVector reports whether this CPU runs the assembly kernels.
var HostVector = useFMA

// SetVector turns the assembly kernels on (where the CPU has them) or
// off. Not safe beside running kernels.
func SetVector(on bool) { useFMA = on && HostVector }

// DequantStrips writes every panel of q through dequantStrip, one strip
// of the matrix tile's width at a time, as MatMulQuantInto does; strip
// holds q.Rows() × 32 floats.
func DequantStrips(strip []float32, q *Quantized) {
	for c := 0; c < q.Cols(); c += outer.cols {
		dequantStrip(strip, q, c, min(outer.cols, q.Cols()-c))
	}
}

// hostTiles are the matrix tiles this CPU runs: the 6×16 one on every
// AVX2+FMA host (and, never entered, on one without), the 8×32 one too
// on an AVX-512 host. The tests that hold the kernel to its contract
// run once per tile (eachTile).
var hostTiles = func() []outerKernel {
	if useWide {
		return []outerKernel{tile6x16, tile8x32}
	}
	return []outerKernel{tile6x16}
}()

// String names a tile by its block, as in "8x32".
func (k outerKernel) String() string { return fmt.Sprintf("%dx%d", k.rows, k.cols) }

// withTile runs f with the matrix kernel on tile k, then restores the
// CPU's choice. Not safe beside running kernels.
func withTile(k outerKernel, f func()) {
	defer func(o outerKernel) { outer = o }(outer)
	outer = k
	f()
}

// eachTile runs f as one subtest per tile the CPU has, named by the
// tile, with the matrix kernel on it; first is set for the first tile.
func eachTile(t *testing.T, f func(t *testing.T, tile outerKernel, first bool)) {
	for i, tile := range hostTiles {
		t.Run(tile.String(), func(t *testing.T) { withTile(tile, func() { f(t, tile, i == 0) }) })
	}
}
