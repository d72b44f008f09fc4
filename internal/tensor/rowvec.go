package tensor

// Vector forms of the training step's float64 row loops. The loops
// themselves — the definitions — stay with their owners: optim's
// adamwJob.Tile, comm's reduceTwo, nn's LayerNormRows and LayerNorm
// backward. Each function here runs the leading whole vectors of one
// of them through an AVX2 kernel that reproduces the loop bit for bit
// (rowvec_amd64.s) and returns how many items that was; the owner's
// loop finishes the rest, which is everything when the CPU gate is off
// or the build is not amd64.

// AdamWCoef holds one AdamW step's coefficients (bias corrections BC1 =
// 1-β1ᵗ and BC2 = 1-β2ᵗ included), in the order adamwVec reads them.
type AdamWCoef struct{ Beta1, Beta2, Eps, WD, BC1, BC2, LR float64 }

// span returns &s[lo] after checking that s[lo:hi] exists (lo < hi).
func span(s []float32, lo, hi int) *float32 {
	_ = s[hi-1]
	return &s[lo]
}

// AdamWVec applies the update to the first len(w)&^3 elements of w and
// its gradient g and moments m, v.
func AdamWVec(w, g, m, v []float32, c *AdamWCoef) int {
	n := len(w) &^ 3
	if !useFMA || n == 0 {
		return 0
	}
	adamwVec(&w[0], span(g, 0, n), span(m, 0, n), span(v, 0, n), n, c)
	return n
}

// Sum2ScaledVec writes float32((float64(a[i])+float64(b[i]))·scale) to
// the first len(dst)&^3 elements of dst, which may be a or b.
func Sum2ScaledVec(dst, a, b []float32, scale float64) int {
	n := len(dst) &^ 3
	if !useFMA || n == 0 {
		return 0
	}
	sum2Vec(&dst[0], span(a, 0, n), span(b, 0, n), n, scale)
	return n
}

// rowGroups returns how many rows of [r0, r1), dim wide, the four-row
// kernels take: whole groups of four, and only when dim is a multiple
// of the kernel's lanes.
func rowGroups(dim, lanes, r0, r1 int) int {
	if !useFMA || dim == 0 || dim%lanes != 0 || r1-r0 < 4 {
		return 0
	}
	return (r1 - r0) &^ 3
}

// LayerNormRowsVec is nn.LayerNormRows (same operands; xhat not nil)
// over the leading groups of four rows of [r0, r1).
func LayerNormRowsVec(out, xhat []float32, rstd []float64, x, gamma, beta []float32, eps float64, r0, r1 int) int {
	dim := len(gamma)
	rows := rowGroups(dim, 4, r0, r1)
	if rows == 0 {
		return 0
	}
	lo, hi := r0*dim, (r0+rows)*dim
	var rs *float64
	if rstd != nil {
		_ = rstd[r0+rows-1]
		rs = &rstd[r0]
	}
	lnFwdVec(span(out, lo, hi), span(xhat, lo, hi), rs, span(x, lo, hi), &gamma[0], span(beta, 0, dim), eps, dim, rows/4)
	return rows
}

// LayerNormDxVec is the input gradient of LayerNorm backward over the
// leading groups of four rows of [r0, r1).
func LayerNormDxVec(dx, dy, xhat, gamma []float32, rstd []float64, r0, r1 int) int {
	dim := len(gamma)
	rows := rowGroups(dim, 4, r0, r1)
	if rows == 0 {
		return 0
	}
	lo, hi := r0*dim, (r0+rows)*dim
	_ = rstd[r0+rows-1]
	lnDxVec(span(dx, lo, hi), span(dy, lo, hi), span(xhat, lo, hi), &gamma[0], &rstd[r0], dim, rows/4)
	return rows
}

// LayerNormParamGradVec is the dγ/dβ reduction of LayerNorm backward
// (runs of chunk rows summed from zero, then added to dg / db) over
// the first len(dg)&^7 columns; it returns that column count.
func LayerNormParamGradVec(dg, db, dy, xhat []float32, rows, chunk int) int {
	dim := len(dg)
	cols := dim &^ 7
	if !useFMA || cols == 0 || rows <= 0 || chunk <= 0 {
		return 0
	}
	lnParamGradVec(&dg[0], span(db, 0, dim), span(dy, 0, rows*dim), span(xhat, 0, rows*dim), dim, cols, rows, chunk)
	return cols
}
