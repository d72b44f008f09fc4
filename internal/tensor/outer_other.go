//go:build !amd64

package tensor

// Non-amd64 builds always take the portable scalar kernel,
// product.rowsPortable, the reference every 6×16 tile is held to. (A
// var so the cross-path parity tests compile everywhere; it is never
// set true off amd64.)
var useFMA = false

func outerTile6x16(dst, t, u *float32, k, tk, tr, un, dn, rows int, mask *int32, bias *float32, scale float32, acc bool) {
	panic("tensor: vector kernel unavailable")
}
