// Package fft implements a radix-2 complex fast Fourier transform and
// a 2-D transform over row-major grids. It is the substrate for the
// AFNO spectral-mixing baseline (FourCastNet), which the paper
// compares against in Fig. 9; the standard library has no FFT.
//
// Transforms are unitary (normalized by 1/√N in both directions), so
// Forward followed by Inverse is the identity and Parseval's theorem
// holds exactly — properties the spectral layer's backward pass relies
// on.
//
// Twiddle factors and bit-reversal permutations are computed once per
// transform size and cached for the life of the process: the spectral
// layers call the same handful of sizes millions of times per training
// run, and recomputing sin/cos per butterfly stage dominated the seed
// profile. The 2-D transform processes column panels through a
// contiguous scratch buffer instead of gathering one strided column at
// a time.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// plan holds the precomputed tables for one transform size.
type plan struct {
	n      int
	bitrev []int32      // bit-reversal permutation
	wFwd   []complex128 // per-stage twiddles, forward sign, n-1 entries
	wInv   []complex128 // inverse sign
	scale  complex128   // unitary 1/√n
}

var planCache sync.Map // int -> *plan

func planFor(n int) *plan {
	if p, ok := planCache.Load(n); ok {
		return p.(*plan)
	}
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	p := &plan{n: n, scale: complex(1/math.Sqrt(float64(n)), 0)}
	shift := 64 - uint(bits.Len(uint(n-1)))
	p.bitrev = make([]int32, n)
	if n > 1 {
		for i := 0; i < n; i++ {
			p.bitrev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
		}
	}
	// Stage twiddles, flattened: size 2 contributes 1 factor, size 4
	// two, ... size n contributes n/2 — n-1 in total per direction.
	for size := 2; size <= n; size <<= 1 {
		ang := 2 * math.Pi / float64(size)
		for k := 0; k < size/2; k++ {
			s, c := math.Sincos(ang * float64(k))
			p.wFwd = append(p.wFwd, complex(c, -s))
			p.wInv = append(p.wInv, complex(c, s))
		}
	}
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*plan)
}

// Forward computes the unitary DFT of x in place. len(x) must be a
// power of two.
func Forward(x []complex128) { transform(x, false) }

// Inverse computes the unitary inverse DFT of x in place.
func Inverse(x []complex128) { transform(x, true) }

func transform(x []complex128, inverse bool) {
	p := planFor(len(x))
	n := p.n
	if n == 1 {
		return
	}
	// Bit-reversal permutation from the cached table.
	for i, jj := range p.bitrev {
		if j := int(jj); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.wFwd
	if inverse {
		tw = p.wInv
	}
	// Iterative Cooley–Tukey butterflies with cached twiddles.
	off := 0
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		stage := tw[off : off+half]
		for start := 0; start < n; start += size {
			lo := x[start : start+half]
			hi := x[start+half : start+size]
			for k, w := range stage {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
		off += half
	}
	// Unitary normalization.
	for i := range x {
		x[i] *= p.scale
	}
}

// Grid is a complex 2-D field in row-major order used by the 2-D
// transforms.
type Grid struct {
	H, W int
	Data []complex128
}

// NewGrid allocates an H×W complex grid.
func NewGrid(h, w int) *Grid {
	return &Grid{H: h, W: w, Data: make([]complex128, h*w)}
}

// FromReal builds a grid from real row-major values.
func FromReal(vals []float32, h, w int) *Grid {
	g := NewGrid(h, w)
	g.SetReal(vals)
	return g
}

// SetReal overwrites the grid with real row-major values (imaginary
// parts zeroed), reusing the existing storage.
func (g *Grid) SetReal(vals []float32) {
	for i, v := range vals {
		g.Data[i] = complex(float64(v), 0)
	}
}

// Real extracts the real parts into dst (length H*W).
func (g *Grid) Real(dst []float32) {
	for i, v := range g.Data {
		dst[i] = float32(real(v))
	}
}

// Clone deep-copies the grid.
func (g *Grid) Clone() *Grid {
	c := NewGrid(g.H, g.W)
	copy(c.Data, g.Data)
	return c
}

// CopyFrom overwrites the grid with u's contents; dimensions must
// match.
func (g *Grid) CopyFrom(u *Grid) {
	if g.H != u.H || g.W != u.W {
		panic("fft: CopyFrom dimension mismatch")
	}
	copy(g.Data, u.Data)
}

// Forward2D applies the unitary 2-D DFT in place (rows then columns).
// H and W must be powers of two.
func Forward2D(g *Grid) { transform2D(g, false) }

// Inverse2D applies the unitary inverse 2-D DFT in place.
func Inverse2D(g *Grid) { transform2D(g, true) }

// colPanel is the number of columns gathered per scratch panel in the
// 2-D transform: wide enough to amortize the strided gather, small
// enough that the panel stays cache-resident.
const colPanel = 8

// colPanelPool recycles the column-panel scratch buffers (stored as
// pointers so Put does not allocate an interface box).
var colPanelPool = sync.Pool{New: func() any { return new([]complex128) }}

func transform2D(g *Grid, inverse bool) {
	// Rows: already contiguous, each an independent 1-D transform.
	for r := 0; r < g.H; r++ {
		transform(g.Data[r*g.W:(r+1)*g.W], inverse)
	}
	// Columns: gather a panel of colPanel columns into contiguous
	// scratch, transform each, and scatter back. One pass over the
	// grid per panel touches each cache line once instead of once per
	// column.
	bufp := colPanelPool.Get().(*[]complex128)
	if cap(*bufp) < colPanel*g.H {
		*bufp = make([]complex128, colPanel*g.H)
	}
	buf := (*bufp)[:colPanel*g.H]
	for c0 := 0; c0 < g.W; c0 += colPanel {
		cw := min(colPanel, g.W-c0)
		for r := 0; r < g.H; r++ {
			for j, v := range g.Data[r*g.W+c0 : r*g.W+c0+cw] {
				buf[j*g.H+r] = v
			}
		}
		for j := 0; j < cw; j++ {
			transform(buf[j*g.H:(j+1)*g.H], inverse)
		}
		for r := 0; r < g.H; r++ {
			row := g.Data[r*g.W+c0 : r*g.W+c0+cw]
			for j := range row {
				row[j] = buf[j*g.H+r]
			}
		}
	}
	colPanelPool.Put(bufp)
}
