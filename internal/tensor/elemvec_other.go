//go:build !amd64

package tensor

// useFMA is never true off amd64, so elemvec.go's wrappers return 0 and
// their callers' scalar loops do all the work, and dequantStrip takes
// DequantPanelsInto for every strip.

func geluVec(dst, sig, x *float32, n int)                 { panic("tensor: vector kernel unavailable") }
func geluBwdVec(dst, x, sig, dy *float32, n int)          { panic("tensor: vector kernel unavailable") }
func softmaxVec(out, in *float32, cols, groups int)       { panic("tensor: vector kernel unavailable") }
func softmaxBwdVec(out, y, dy *float32, cols, groups int) { panic("tensor: vector kernel unavailable") }
func addVec(dst, a, b *float32, n int)                    { panic("tensor: vector kernel unavailable") }
func scaleVec(dst *float32, n int, s float32)             { panic("tensor: vector kernel unavailable") }
func maxAbsVec(p *float32, n int) uint32                  { panic("tensor: vector kernel unavailable") }
func sumRowsVec(dst, t *float32, rows, cols, stride int)  { panic("tensor: vector kernel unavailable") }
func transposeVec(dst, src *float32, rows, ld, r8, c8 int) {
	panic("tensor: vector kernel unavailable")
}
func dequantVec(dst *float32, data *byte, scales *float32, rows, stride, pb, nb int, q4 bool) {
	panic("tensor: vector kernel unavailable")
}
func aggDotVec(w, e, kq *float32, c, stride, ld, d8 int) { panic("tensor: vector kernel unavailable") }
func aggMixVec(out, e, a *float32, c, stride, d8 int)    { panic("tensor: vector kernel unavailable") }
