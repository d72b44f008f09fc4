//go:build !amd64

package tensor

// useFMA is never true off amd64, so rowvec.go's wrappers return 0 and
// their callers' scalar loops do all the work.

func adamwVec(w, grad, m, v *float32, n int, c *AdamWCoef) {
	panic("tensor: vector kernel unavailable")
}

func sum2Vec(dst, a, b *float32, n int, scale float64, acc bool) {
	panic("tensor: vector kernel unavailable")
}

func sumSquaresVec(x *float32, n int, s *[16]float64) { panic("tensor: vector kernel unavailable") }

func lnFwdVec(out, xhat, rstd, x, gamma, beta *float32, eps float32, dim, groups int) {
	panic("tensor: vector kernel unavailable")
}

func lnDxVec(dx, dy, xhat, gamma, rstd *float32, dim, groups int) {
	panic("tensor: vector kernel unavailable")
}

func lnParamGradVec(dg, db, dy, xhat *float32, dim, cols, rows, chunk int) {
	panic("tensor: vector kernel unavailable")
}
