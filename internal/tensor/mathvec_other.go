//go:build !amd64

package tensor

// Non-amd64 builds take the scalar exp32.

func expSlice(dst, src []float32) {
	for i, v := range src {
		dst[i] = exp32(v)
	}
}
