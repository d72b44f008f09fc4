// Package tensor implements a dense float32 tensor engine with the
// operations needed to train vision transformers: parallel matrix
// multiplication, broadcast arithmetic, reductions, and shape
// manipulation. It is the CPU substitute for the GPU tensor library
// (PyTorch) used by the ORBIT paper.
//
// Tensors are row-major and always contiguous. Shapes are immutable
// after construction; FromSlice wraps a slice of another tensor as a
// view sharing its storage. All operations check shapes and panic on mismatch — shape
// errors are programming bugs, not runtime conditions.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	shape []int
	data  []float32
	ver   uint64 // mutation counter; see Version
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is
// used directly (not copied); its length must equal the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Full allocates a tensor filled with value v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones allocates a tensor filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Ensure returns a tensor of the given shape, reusing t's header and
// backing storage when its capacity allows and allocating a fresh
// tensor otherwise. It is the idiom for module-owned scratch buffers:
//
//	l.y = tensor.Ensure(l.y, rows, cols)
//
// After the first call with a given shape the buffer is stable, so a
// steady-state training step performs no heap allocations. Contents
// are unspecified after Ensure; kernels writing into the buffer must
// not assume it is zeroed.
func Ensure(t *Tensor, shape ...int) *Tensor {
	n := checkShape(shape)
	if t == nil || cap(t.data) < n || cap(t.shape) < len(shape) {
		return New(shape...)
	}
	t.shape = append(t.shape[:0], shape...)
	t.data = t.data[:n]
	return t
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panicBadShape(shape)
		}
		n *= d
	}
	return n
}

// panicBadShape formats its message from a copy of shape so the
// variadic shape slices of New/Ensure/Get never escape to the heap on
// the non-panicking path (hot-path callers rely on this staying
// allocation-free).
func panicBadShape(shape []int) {
	panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", append([]int(nil), shape...)))
}

// Version returns the tensor's mutation counter, used by kernels that
// cache derived forms of stable tensors (e.g. a linear layer's weight
// transpose). The counter advances on every mutating Tensor
// method; writers that modify the raw Data() slice directly must call
// Bump themselves (the optimizers and the Hybrid-STOP engine's
// in-place gather do).
func (t *Tensor) Version() uint64 { return t.ver }

// Bump records an out-of-band mutation of the tensor's contents.
func (t *Tensor) Bump() { t.ver++ }

// Shape returns the tensor's dimensions. The returned slice must not
// be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data exposes the backing slice in row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v; t.ver++ }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Row returns a view of row r of a 2-D tensor as a length-cols slice.
func (t *Tensor) Row(r int) []float32 {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	c := t.shape[1]
	return t.data[r*c : (r+1)*c]
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// Zero sets every element to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
	t.ver++
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
	t.ver++
}

// CopyFrom copies u's data into t. Shapes must match.
func (t *Tensor) CopyFrom(u *Tensor) {
	t.mustMatch(u, "CopyFrom")
	copy(t.data, u.data)
	t.ver++
}

func (t *Tensor) mustMatch(u *Tensor, op string) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, u.shape))
	}
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		var b strings.Builder
		fmt.Fprintf(&b, "Tensor%v%v", t.shape, t.data)
		return b.String()
	}
	return fmt.Sprintf("Tensor%v[%d elements, mean %.4g]", t.shape, len(t.data), t.Mean())
}

// MaxAbs returns the maximum absolute value, or 0 for an empty tensor.
// The scan is branchless on the sign (clearing the IEEE sign bit)
// so it runs at streaming speed on random-sign data.
func (t *Tensor) MaxAbs() float32 {
	m, n := maxAbsSlice(t.data)
	for _, v := range t.data[n:] {
		if b := math.Float32bits(v) &^ (1 << 31); b > m {
			m = b
		}
	}
	return math.Float32frombits(m)
}

// HasNaNOrInf reports whether any element is NaN or infinite.
func (t *Tensor) HasNaNOrInf() bool {
	for _, v := range t.data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}
