package tensor

import "sync"

// Row-wise and elementwise kernel dispatch. Softmax and GELU are
// embarrassingly parallel — each output row (softmax) or element (GELU)
// depends only on its own inputs — so they split over the ParallelFor
// runtime with no cross-tile reduction at all. Each tile runs exactly
// the serial loop over its own range. The loops below are the
// definitions; elemvec.go's vector forms take each tile's leading whole
// vectors (GELU) or groups of four rows (softmax) and are bit-identical
// to them per element, so results do not depend on where tile
// boundaries fall: any worker count produces the same bits.

// softmaxGroup is the dispatch item of softmax and its backward: a fixed
// group of rows, the vector kernels' four. Were the item one row,
// NumTiles would hand every tile of a 64-row tensor two rows and the
// four-row kernels would never run. Rows are independent, so the
// grouping moves no bit.
const softmaxGroup = 4

// elemJob is one row-wise or elementwise kernel invocation. For the
// softmax kinds items are groups of softmaxGroup rows of width cols;
// for the GELU kinds items are flat elements.
type elemJob struct {
	kind            OpKind // OpSoftmax, OpSoftmaxBwd, OpGELU or OpGELUBwd
	x, sig, dy, out []float32
	rows, cols      int
}

// Tile implements Job. Each case is the unchanged serial loop
// restricted to [i0, i1).
func (j *elemJob) Tile(_, i0, i1 int) {
	switch j.kind {
	case OpSoftmax:
		cols := j.cols
		r0, r1 := i0*softmaxGroup, min(i1*softmaxGroup, j.rows)
		r0 += softmaxRows(j.out, j.x, cols, r0, r1)
		for r := r0; r < r1; r++ {
			softmaxRow(j.x[r*cols:(r+1)*cols], j.out[r*cols:(r+1)*cols])
		}
	case OpSoftmaxBwd:
		cols := j.cols
		r0, r1 := i0*softmaxGroup, min(i1*softmaxGroup, j.rows)
		r0 += softmaxBwdRows(j.out, j.x, j.dy, cols, r0, r1)
		for r := r0; r < r1; r++ {
			yr := j.x[r*cols : (r+1)*cols]
			dr := j.dy[r*cols : (r+1)*cols]
			or := j.out[r*cols : (r+1)*cols]
			var dot float64
			for i := range yr {
				dot += float64(yr[i]) * float64(dr[i])
			}
			for i := range yr {
				or[i] = yr[i] * (dr[i] - float32(dot))
			}
		}
	case OpGELU:
		x, d := j.x[i0:i1], j.out[i0:i1]
		sd := d // no cache wanted: the σ store lands in out and is overwritten
		if j.sig != nil {
			sd = j.sig[i0:i1]
		}
		for i := geluSlice(d, sd, x); i < len(x); i++ {
			v := x[i]
			s := 1 / (1 + exp32(v*(geluK0+geluK1*v*v)))
			sd[i] = s
			d[i] = v * s
		}
	case OpGELUBwd:
		x, sd, dyd, d := j.x[i0:i1], j.sig[i0:i1], j.dy[i0:i1], j.out[i0:i1]
		for i := geluBwdSlice(d, x, sd, dyd); i < len(x); i++ {
			v, s := x[i], sd[i]
			dz := geluK0 + geluK3*v*v
			d[i] = dyd[i] * (s - v*s*(1-s)*dz)
		}
	}
}

var elemJobPool = sync.Pool{New: func() any { return new(elemJob) }}

// dispatchElem runs an elemJob over n items, `work` units of its kind,
// through a pooled instance so the steady state allocates nothing.
func dispatchElem(j elemJob, n, work int) {
	e := elemJobPool.Get().(*elemJob)
	*e = j
	ParallelFor(n, j.kind.Flops(work), e)
	*e = elemJob{}
	elemJobPool.Put(e)
}
