//go:build !amd64

package tensor

// Non-amd64 builds always take the portable scalar kernel. (A var so
// the cross-path parity tests compile everywhere; it is never set true
// off amd64.)
var useFMA = false

func dotBlock2x4(a0, a1, b *float32, k int, sums *[8]float32) {
	panic("tensor: vector kernel unavailable")
}

func dotBlock1x4(a0, b *float32, k int, sums *[4]float32) {
	panic("tensor: vector kernel unavailable")
}

func outerTile4x16(dst, t, u *float32, k, tk, tr, un, dn, rows int, mask *int32, bias *float32, scale float32, acc bool) {
	panic("tensor: vector kernel unavailable")
}
