package comm

import "math/bits"

// BufPool is a size-bucketed free list of float32 buffers for the
// copies the parallel engines stage around collectives (a pipeline
// stage's sends, a DDP bucket's packed gradients).
// Like tensor.Workspace it buckets by power-of-two capacity, so a Get
// is served by any previously Put buffer of the same size class and
// reaches steady-state zero allocations. Contents of a Get buffer are
// unspecified.
//
// A BufPool is not safe for concurrent use: each rank owns its own,
// matching how a real GPU's communication stream owns its staging
// arena.
type BufPool struct {
	buckets [33][][]float32
}

// NewBufPool returns an empty pool.
func NewBufPool() *BufPool { return &BufPool{} }

// Get returns a buffer of length n with unspecified contents.
func (p *BufPool) Get(n int) []float32 {
	if n == 0 {
		return nil
	}
	class := uint(bits.Len(uint(n - 1)))
	free := p.buckets[class]
	if len(free) == 0 {
		return make([]float32, n, 1<<class)
	}
	b := free[len(free)-1]
	free[len(free)-1] = nil
	p.buckets[class] = free[:len(free)-1]
	return b[:n]
}

// Put recycles a buffer; the caller must not use it afterwards. Each
// buffer lands in the largest bucket its capacity fully covers.
func (p *BufPool) Put(b []float32) {
	if cap(b) == 0 {
		return
	}
	class := uint(bits.Len(uint(cap(b)))) - 1
	p.buckets[class] = append(p.buckets[class], b[:cap(b)])
}
