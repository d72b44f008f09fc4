package tensor_test

import (
	"math"
	"math/bits"
	"runtime"
	"testing"

	"orbit/internal/afno"
	"orbit/internal/fft"
	"orbit/internal/nn"
	"orbit/internal/optim"
	"orbit/internal/tensor"
)

// opSweep drives one OpKind's kernel through its public entry point at
// a shape that forks: `items` is the dispatch's item count and `work`
// the units it charges to its kind. run builds its operands from fixed
// seeds and returns every value the kernel writes.
type opSweep struct {
	name        string
	items, work int
	run         func() []float64
}

// f64 flattens float32 outputs and complex128 grids into one slice;
// every conversion is exact, so comparing it compares the bits.
func f64(ts []*tensor.Tensor, grids ...*fft.Grid) []float64 {
	var out []float64
	for _, t := range ts {
		for _, v := range t.Data() {
			out = append(out, float64(v))
		}
	}
	for _, g := range grids {
		for _, c := range g.Data {
			out = append(out, real(c), imag(c))
		}
	}
	return out
}

func randn(seed uint64, shape ...int) *tensor.Tensor {
	return tensor.Randn(tensor.NewRNG(seed), 1, shape...)
}

// opSweeps has one entry per OpKind.
func opSweeps() map[tensor.OpKind]opSweep {
	const m, k, n = 96, 64, 96
	const rows, cols = 512, 256
	const lnRows, lnDim = 1024, 128
	const fftH, fftW = 64, 64
	const specH, specW = 128, 128
	fftWork := fftH * fftW * bits.Len(fftH*fftW)
	layerNorm := func(backward bool) []float64 {
		l := nn.NewLayerNorm("ln", lnDim)
		copy(l.Gamma.W.Data(), randn(31, lnDim).Data())
		y := l.Forward(randn(32, lnRows, lnDim))
		if !backward {
			return f64([]*tensor.Tensor{y})
		}
		dx := l.Backward(randn(33, lnRows, lnDim))
		return f64([]*tensor.Tensor{dx, l.Gamma.Grad, l.Beta.Grad})
	}
	grid := func(seed uint64) *fft.Grid { return fft.FromReal(randn(seed, fftH*fftW).Data(), fftH, fftW) }
	spectral := func(backward bool) []float64 {
		l := afno.NewSpectralLayer("spec", 2, specH, specW, tensor.NewRNG(41))
		y := l.Forward(randn(42, 2, specH, specW))
		if !backward {
			return f64([]*tensor.Tensor{y})
		}
		dx := l.Backward(randn(43, 2, specH, specW))
		return f64([]*tensor.Tensor{dx, l.WRe.Grad, l.WIm.Grad})
	}
	return map[tensor.OpKind]opSweep{
		tensor.OpMatMul: {"MatMulInto", (m + 3) / 4, m * k * n, func() []float64 {
			return f64([]*tensor.Tensor{tensor.MatMulInto(tensor.New(m, n), randn(1, m, k), randn(2, k, n))})
		}},
		tensor.OpQuantMatMul: {"MatMulQuantInto", 64 / 16, 24 * 96 * 64, func() []float64 {
			q := tensor.QuantizeTensor(randn(3, 96, 64), tensor.QuantQ4)
			return f64([]*tensor.Tensor{tensor.MatMulQuantInto(tensor.New(24, 64), randn(4, 24, 96), q, randn(5, 1, 64))})
		}},
		tensor.OpTranspose: {"BatchedMatMulTransBScaledInto", 8, 8 * 32 * 256, func() []float64 {
			dst := tensor.BatchedMatMulTransBScaledInto(tensor.New(8, 32, 32), randn(6, 8, 32, 256), randn(7, 8, 32, 256), 0.125)
			return f64([]*tensor.Tensor{dst})
		}},
		tensor.OpSoftmax: {"SoftmaxInto", rows / 4, rows * cols, func() []float64 {
			return f64([]*tensor.Tensor{tensor.SoftmaxInto(tensor.New(rows, cols), randn(8, rows, cols))})
		}},
		tensor.OpSoftmaxBwd: {"SoftmaxBackwardInto", rows / 4, rows * cols, func() []float64 {
			y := tensor.SoftmaxInto(tensor.New(rows, cols), randn(9, rows, cols))
			return f64([]*tensor.Tensor{tensor.SoftmaxBackwardInto(tensor.New(rows, cols), y, randn(10, rows, cols))})
		}},
		tensor.OpGELU: {"GELUCachedInto", rows * cols, rows * cols, func() []float64 {
			x := randn(11, rows, cols)
			y, th := tensor.New(rows, cols), tensor.New(rows, cols)
			tensor.GELUCachedInto(y, th, x)
			return f64([]*tensor.Tensor{y, th})
		}},
		tensor.OpGELUBwd: {"GELUBackwardCachedInto", rows * cols, rows * cols, func() []float64 {
			x, th := randn(12, rows, cols), tensor.New(rows, cols)
			tensor.GELUCachedInto(tensor.New(rows, cols), th, x)
			dx := tensor.GELUBackwardCachedInto(tensor.New(rows, cols), x, th, randn(13, rows, cols))
			return f64([]*tensor.Tensor{dx})
		}},
		tensor.OpLayerNorm: {"LayerNorm.Forward", lnRows / 16, lnRows * lnDim, func() []float64 {
			return layerNorm(false)
		}},
		tensor.OpLayerNormBwd: {"LayerNorm.Backward", lnRows / 16, lnRows * lnDim, func() []float64 {
			return layerNorm(true)
		}},
		tensor.OpAdamW: {"AdamW.Step", rows * cols, rows * cols, func() []float64 {
			p := nn.NewParam("w", randn(21, rows, cols))
			opt := optim.NewAdamW([]*nn.Param{p}, 0.01)
			for s := uint64(0); s < 2; s++ {
				copy(p.Grad.Data(), randn(22+s, rows, cols).Data())
				opt.Step(1e-3)
			}
			mom, vel := opt.Moments()
			return f64([]*tensor.Tensor{p.W, mom[0], vel[0]})
		}},
		tensor.OpFFTRows: {"fft.Forward2D", fftH, fftWork, func() []float64 {
			g := grid(51)
			fft.Forward2D(g)
			return f64(nil, g)
		}},
		tensor.OpFFTCols: {"fft.Inverse2D", fftW / 8, fftWork, func() []float64 {
			g := grid(52)
			fft.Inverse2D(g)
			return f64(nil, g)
		}},
		tensor.OpSpectralMul: {"SpectralLayer.Forward", specH * specW, specH * specW, func() []float64 {
			return spectral(false)
		}},
		tensor.OpSpectralMulBwd: {"SpectralLayer.Backward", specH * specW, specH * specW, func() []float64 {
			return spectral(true)
		}},
	}
}

// TestOpKindsDeterministicAcrossWorkerCounts runs every OpKind's kernel
// on the forked path at GOMAXPROCS 1, 4 and 8 and demands the same bits
// each time: tile boundaries are a pure function of the item count, so
// the worker count cannot move a result. A kind without an entry, or
// an entry whose shape stays under the dispatch threshold, fails.
func TestOpKindsDeterministicAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sweeps := opSweeps()
	for kind := tensor.OpKind(0); kind < tensor.OpCount; kind++ {
		s, ok := sweeps[kind]
		if !ok {
			t.Errorf("OpKind %d has no entry in opSweeps", kind)
			continue
		}
		if tensor.NumTiles(s.items) < 2 || kind.Flops(s.work) < tensor.ParallelThreshold {
			t.Errorf("%s (OpKind %d): %d items, %d flops never fork (threshold %d)",
				s.name, kind, s.items, kind.Flops(s.work), tensor.ParallelThreshold)
			continue
		}
		var ref []float64
		for _, procs := range []int{1, 4, 8} {
			runtime.GOMAXPROCS(procs)
			got := s.run()
			if ref == nil {
				ref = got
				continue
			}
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(ref[i]) {
					t.Fatalf("%s at GOMAXPROCS=%d: value %d is %v, at 1 it is %v", s.name, procs, i, v, ref[i])
				}
			}
		}
	}
}
