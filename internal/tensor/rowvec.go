package tensor

// Vector forms of the training step's row loops. The loops — the
// definitions — stay with their owners: optim's adamwUpdate, comm's
// reduceTwo, nn's LayerNormRows and LayerNorm backward. Each function
// here runs the leading whole vectors (AdamW, the reduce) or groups of
// four rows (LayerNorm) of one loop through an AVX2 kernel that
// reproduces it bit for bit (rowvec_amd64.s) and returns how many items
// that was; the owner's loop finishes the rest. The LayerNorm loops
// keep each row sum in eight float32 partial sums, column c in sum c%8,
// added by HSum8, so the kernels run along the row with no transpose.

// AdamWCoef holds one AdamW step's float32 coefficients as adamwVec reads
// them: β1, 1-β1, β2, 1-β2, 1/(1-β1ᵗ), 1/(1-β2ᵗ), ε, weight decay, rate.
type AdamWCoef struct{ B1, C1, B2, C2, IBC1, IBC2, Eps, WD, LR float32 }

// HSum8 is HSUM4's tree: partial sums i and i+4, then adjacent pairs.
func HSum8(s *[8]float32) float32 {
	return ((s[0] + s[4]) + (s[1] + s[5])) + ((s[2] + s[6]) + (s[3] + s[7]))
}

// span returns &s[lo] after checking that s[lo:hi] exists (lo < hi).
func span(s []float32, lo, hi int) *float32 {
	_ = s[hi-1]
	return &s[lo]
}

// AdamWVec applies the update to the first len(w)&^7 elements of w and
// its gradient g and moments m, v.
func AdamWVec(w, g, m, v []float32, c *AdamWCoef) int {
	n := whole(len(w))
	if n > 0 {
		adamwVec(&w[0], span(g, 0, n), span(m, 0, n), span(v, 0, n), n, c)
	}
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
// kernels (LayerNorm, softmax) take: whole groups of four, dim%8 == 0.
func rowGroups(dim, r0, r1 int) int {
	if !useFMA || dim == 0 || dim%8 != 0 || r1-r0 < 4 {
		return 0
	}
	return (r1 - r0) &^ 3
}

// LayerNormRowsVec is nn.LayerNormRows (same operands; xhat not nil)
// over the leading groups of four rows of [r0, r1).
func LayerNormRowsVec(out, xhat, rstd, x, gamma, beta []float32, eps float32, r0, r1 int) int {
	dim := len(gamma)
	rows := rowGroups(dim, r0, r1)
	if rows > 0 {
		lo, hi := r0*dim, (r0+rows)*dim
		var rs *float32
		if rstd != nil {
			rs = span(rstd, r0, r0+rows)
		}
		lnFwdVec(span(out, lo, hi), span(xhat, lo, hi), rs, span(x, lo, hi), &gamma[0], span(beta, 0, dim), eps, dim, rows/4)
	}
	return rows
}

// LayerNormDxVec is the input gradient of LayerNorm backward over the
// leading groups of four rows of [r0, r1).
func LayerNormDxVec(dx, dy, xhat, gamma, rstd []float32, r0, r1 int) int {
	dim := len(gamma)
	rows := rowGroups(dim, r0, r1)
	if rows > 0 {
		lo, hi := r0*dim, (r0+rows)*dim
		lnDxVec(span(dx, lo, hi), span(dy, lo, hi), span(xhat, lo, hi), &gamma[0], span(rstd, r0, r0+rows), dim, rows/4)
	}
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
