//go:build amd64

package tensor

// The kernels of rowvec.go, in rowvec_amd64.s; n, dim and cols arrive
// already rounded to whole vectors.

//go:noescape
func adamwVec(w, grad, m, v *float32, n int, c *AdamWCoef)

//go:noescape
func sum2Vec(dst, a, b *float32, n int, scale float64, acc bool)

//go:noescape
func sumSquaresVec(x *float32, n int, s *[16]float64)

//go:noescape
func lnFwdVec(out, xhat, rstd, x, gamma, beta *float32, eps float32, dim, groups int)

//go:noescape
func lnDxVec(dx, dy, xhat, gamma, rstd *float32, dim, groups int)

//go:noescape
func lnParamGradVec(dg, db, dy, xhat *float32, dim, cols, rows, chunk int)
