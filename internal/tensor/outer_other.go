//go:build !amd64

package tensor

// Non-amd64 builds always take the portable scalar kernel,
// product.rowsPortable, the reference every tile is held to. (Vars so
// the cross-path parity tests compile everywhere; they are never set
// true off amd64.)
var useFMA, useWide = false, false

func outerTile6x16(dst, t, u *float32, k, tk, tr, un, dn, rows int, mask *int32, bias *float32, scale float32, acc bool) {
	panic("tensor: vector kernel unavailable")
}

func outerTile8x32(dst, t, u *float32, k, tk, tr, un, dn, rows int, mask *int32, bias *float32, scale float32, acc bool) {
	panic("tensor: vector kernel unavailable")
}
