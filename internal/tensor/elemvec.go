package tensor

// Vector forms of the step's elementwise float32 loops, as rowvec.go
// holds its row loops. The loops — the definitions — stay where they
// were: exp32's in expSlice (below), the softmax and GELU loops,
// softmaxRow, AddInto, AddInPlace,
// ScaleInPlace, SumRowsAccInto (ops.go), MaxAbs (tensor.go),
// packTranspose (pack.go) and train's gradient accumulate. Each
// function here runs the leading whole vectors of one of them through
// an AVX2 kernel that reproduces the loop bit for bit (elemvec_amd64.s)
// and returns how many items that was; the loop finishes the rest,
// which is everything when the CPU gate is off or the build is not
// amd64.

// whole returns n rounded down to whole eight-lane vectors, or 0 with
// the CPU gate off.
func whole(n int) int {
	if !useFMA {
		return 0
	}
	return n &^ 7
}

// expSlice writes exp32(src[i]) to dst[i], the leading whole vectors
// through the kernel; dst may be src.
func expSlice(dst, src []float32) {
	n := whole(len(src))
	if n > 0 {
		expVec(span(dst, 0, n), &src[0], n)
	}
	for i := n; i < len(src); i++ {
		dst[i] = exp32(src[i])
	}
}

// AddVec adds src to the first len(dst)&^7 elements of dst.
func AddVec(dst, src []float32) int { return addSlices(dst, dst, src) }

// addSlices writes a + b to the first len(dst)&^7 elements of dst,
// which may be a or b.
func addSlices(dst, a, b []float32) int {
	n := whole(len(dst))
	if n > 0 {
		addVec(&dst[0], span(a, 0, n), span(b, 0, n), n)
	}
	return n
}

// scaleSlice multiplies the first len(d)&^7 elements of d by s.
func scaleSlice(d []float32, s float32) int {
	n := whole(len(d))
	if n > 0 {
		scaleVec(&d[0], n, s)
	}
	return n
}

// maxAbsSlice returns the largest sign-cleared bit pattern among the
// first n = len(d)&^7 elements of d, and n.
func maxAbsSlice(d []float32) (m uint32, n int) {
	if n = whole(len(d)); n > 0 {
		m = maxAbsVec(&d[0], n)
	}
	return m, n
}

// sumRowsCols is SumRowsAccInto over the first cols&^7 columns of t
// ([rows, cols]); it returns that column count.
func sumRowsCols(dst, t []float32, rows, cols int) int {
	c8 := whole(cols)
	if c8 > 0 && rows > 0 {
		sumRowsVec(span(dst, 0, cols), span(t, 0, rows*cols), rows, c8, cols)
	}
	return c8
}

// transposeBlocks is packTranspose over the leading rows&^7 × cols&^7
// corner of src; it returns the corner's extents.
func transposeBlocks(dst, src []float32, rows, cols int) (r8, c8 int) {
	r8, c8 = whole(rows), whole(cols)
	if r8 == 0 || c8 == 0 {
		return 0, 0
	}
	transposeVec(span(dst, 0, rows*cols), span(src, 0, rows*cols), rows, cols, r8, c8)
	return r8, c8
}

// geluSlice is GELUCachedInto's loop over the first len(x)&^7
// elements.
func geluSlice(dst, sig, x []float32) int {
	n := whole(len(x))
	if n > 0 {
		geluVec(span(dst, 0, n), span(sig, 0, n), &x[0], n)
	}
	return n
}

// geluBwdSlice is GELUBackwardCachedInto's loop over the first
// len(x)&^7 elements.
func geluBwdSlice(dst, x, sig, dy []float32) int {
	n := whole(len(x))
	if n > 0 {
		geluBwdVec(span(dst, 0, n), &x[0], span(sig, 0, n), span(dy, 0, n), n)
	}
	return n
}

// softmaxRows is softmaxRow over the leading groups of four rows of
// [r0, r1), cols wide.
func softmaxRows(out, in []float32, cols, r0, r1 int) int {
	rows := rowGroups(cols, r0, r1)
	if rows > 0 {
		lo, hi := r0*cols, (r0+rows)*cols
		softmaxVec(span(out, lo, hi), span(in, lo, hi), cols, rows/4)
	}
	return rows
}

// softmaxBwdRows is SoftmaxBackwardInto's loop over the leading groups
// of four rows of [r0, r1), cols wide.
func softmaxBwdRows(out, y, dy []float32, cols, r0, r1 int) int {
	rows := rowGroups(cols, r0, r1)
	if rows > 0 {
		lo, hi := r0*cols, (r0+rows)*cols
		softmaxBwdVec(span(out, lo, hi), span(y, lo, hi), span(dy, lo, hi), cols, rows/4)
	}
	return rows
}
