package tensor

import (
	"fmt"
	"testing"
)

// BenchmarkMatMulKernel runs the matrix kernel at the shapes the bench
// workloads meet — the linear layers of a training micro-batch (32
// token rows, D = 64) and their weight gradient (the left operand read
// transposed, accumulated into dW), the per-rank shapes of the
// tensor-parallel training step (half the output or input columns),
// the fused serving batch (256 rows) and one sample's four attention
// heads, and the quantized weights of the int8 serving path at the two
// linear-layer shapes, whose per-call strip writing is counted in their
// time — and 30 rows, five whole 6-row blocks (32 end in a 2-row short
// one). Each row runs once per tile the CPU has, the tile in its name.
// It reports GFLOP/s, so a kernel regression has a one-line reproducer:
//
//	go test ./internal/tensor -run '^$' -bench MatMulKernel
func BenchmarkMatMulKernel(b *testing.B) {
	rng := NewRNG(7)
	type row struct {
		name  string
		flops int64
		call  func()
	}
	var rows []row
	for _, s := range [][3]int{{30, 64, 192}, {32, 64, 32}, {32, 32, 64}, {32, 64, 64}, {32, 64, 192}, {32, 64, 256}, {32, 256, 64}, {256, 64, 256}} {
		m, k, n := s[0], s[1], s[2]
		dst, t, u := New(m, n), Randn(rng, 1, m, k), Randn(rng, 1, k, n)
		rows = append(rows, row{fmt.Sprintf("[%d,%d]@[%d,%d]", m, k, k, n), MatMulFLOPs(m, k, n), func() { MatMulInto(dst, t, u) }})
		if k == 64 && n == 256 {
			for _, kind := range []QuantKind{QuantInt8, QuantQ4} {
				q := QuantizeTensor(u, kind)
				rows = append(rows, row{fmt.Sprintf("%s/[%d,%d]@[%d,%d]", kind, m, k, k, n), MatMulFLOPs(m, k, n), func() { MatMulQuantInto(dst, t, q, nil) }})
			}
		}
	}
	for _, n := range []int{192, 32} {
		x, dy, dw := Randn(rng, 1, 32, 64), Randn(rng, 1, 32, n), New(64, n)
		rows = append(rows, row{fmt.Sprintf("[64,32]ᵀ@[32,%d]", n), MatMulFLOPs(64, 32, n), func() { MatMulTransAAccInto(dw, x, dy) }})
	}
	const heads, tokens, hd = 4, 32, 16
	q, kh := Randn(rng, 1, heads, tokens, hd), Randn(rng, 1, heads, tokens, hd)
	probs, out := New(heads, tokens, tokens), New(heads, tokens, hd)
	rows = append(rows,
		row{"4x[32,16]@[16,32]", heads * MatMulFLOPs(tokens, hd, tokens), func() { BatchedMatMulTransBScaledInto(probs, q, kh, 0.25) }},
		row{"4x[32,32]@[32,16]", heads * MatMulFLOPs(tokens, tokens, hd), func() { BatchedMatMulInto(out, probs, kh) }})
	for _, r := range rows {
		for _, tile := range hostTiles {
			b.Run(r.name+"/"+tile.String(), func(b *testing.B) {
				withTile(tile, func() {
					for i := 0; i < b.N; i++ {
						r.call()
					}
				})
				b.ReportMetric(float64(r.flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
