//go:build amd64

package tensor

// The kernels of elemvec.go, of quantmatmul.go's dequantStrip and of
// rowvec.go's aggregation wrappers, in elemvec_amd64.s; n, cols, r8, c8 and rows arrive already rounded to
// whole vectors.

//go:noescape
func geluVec(dst, sig, x *float32, n int)

//go:noescape
func geluBwdVec(dst, x, sig, dy *float32, n int)

//go:noescape
func softmaxVec(out, in *float32, cols, groups int)

//go:noescape
func softmaxBwdVec(out, y, dy *float32, cols, groups int)

//go:noescape
func addVec(dst, a, b *float32, n int)

//go:noescape
func scaleVec(dst *float32, n int, s float32)

//go:noescape
func maxAbsVec(p *float32, n int) uint32

//go:noescape
func sumRowsVec(dst, t *float32, rows, cols, stride int)

//go:noescape
func transposeVec(dst, src *float32, rows, ld, r8, c8 int)

//go:noescape
func dequantVec(dst *float32, data *byte, scales *float32, rows, stride, pb, nb int, q4 bool)

//go:noescape
func aggDotVec(w, e, kq *float32, c, stride, ld, d8 int)

//go:noescape
func aggMixVec(out, e, a *float32, c, stride, d8 int)
