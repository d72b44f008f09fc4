// Package afno implements an Adaptive Fourier Neural Operator
// forecaster in the style of FourCastNet (Pathak et al.), the
// task-specific baseline the ORBIT paper compares against in Fig. 9.
// The model embeds each grid point, alternates spectral-mixing layers
// (learned complex multipliers in 2-D Fourier space) with pointwise
// MLPs, and decodes back to climate fields. Like FourCastNet it is
// trained as a single-step (6-hour) forecaster and produces longer
// leads by autoregressive rollout.
package afno

import (
	"fmt"

	"orbit/internal/fft"
	"orbit/internal/nn"
	"orbit/internal/optim"
	"orbit/internal/tensor"
)

// Config describes an AFNO forecaster.
type Config struct {
	Channels, Height, Width int
	EmbedDim                int
	Layers                  int
	// Modes caps the retained frequencies per axis (0 = all).
	Modes int
}

// Tiny returns a laptop-scale configuration.
func Tiny(channels, height, width int) Config {
	return Config{Channels: channels, Height: height, Width: width, EmbedDim: 16, Layers: 2}
}

// SpectralLayer multiplies each embedding channel's spatial spectrum
// by learned complex weights: y = Re(IFFT₂(W ⊙ FFT₂(x))). The
// transform is unitary, which makes the backward pass exactly the
// adjoint: gz = FFT₂(gy), gw = conj(u) ⊙ gz, gu = conj(w) ⊙ gz,
// gx = Re(IFFT₂(gu)).
type SpectralLayer struct {
	Dim, H, W int
	// WRe/WIm hold the complex multipliers as two real tensors
	// [Dim, H, W] so they plug into the shared optimizer.
	WRe, WIm *nn.Param

	u []*fft.Grid // cached forward spectra per embedding channel
	// work grids and output buffers reused across steps
	work, gwork *fft.Grid
	out, dx     *tensor.Tensor

	mul  specMulJob // persistent forward-multiply job (zero-alloc dispatch)
	bmul specBwdJob // persistent backward-multiply job
}

// specMulJob applies one channel's spectral multiplier over frequency
// bins [i0, i1): data[i] *= (wre[i], wim[i]). Bins are disjoint, so
// any tile split matches the serial loop bit-for-bit. The channel
// loop above it stays serial: the FFTs inside it dispatch their own
// tiles, and Tile must never nest a dispatch.
type specMulJob struct {
	data     []complex128
	wre, wim []float32
}

func (j *specMulJob) Tile(_, i0, i1 int) {
	for i := i0; i < i1; i++ {
		j.data[i] *= complex(float64(j.wre[i]), float64(j.wim[i]))
	}
}

// specBwdJob is the adjoint multiply over bins [i0, i1): it
// accumulates gw = conj(u) ⊙ gz into the multiplier gradients and
// writes gu = conj(w) ⊙ gz. Every bin's gradient cell is touched by
// exactly one item, so there is no cross-tile reduction.
type specBwdJob struct {
	gz, u, gu          []complex128
	wre, wim, gre, gim []float32
}

func (j *specBwdJob) Tile(_, i0, i1 int) {
	for i := i0; i < i1; i++ {
		z := j.gz[i]
		gw := complex(real(j.u[i]), -imag(j.u[i])) * z
		j.gre[i] += float32(real(gw))
		j.gim[i] += float32(imag(gw))
		w := complex(float64(j.wre[i]), -float64(j.wim[i]))
		j.gu[i] = w * z
	}
}

// NewSpectralLayer initializes multipliers near identity (1 + noise).
func NewSpectralLayer(name string, dim, h, w int, rng *tensor.RNG) *SpectralLayer {
	re := tensor.Randn(rng, 0.02, dim, h, w)
	for i := range re.Data() {
		re.Data()[i] += 1
	}
	return &SpectralLayer{
		Dim: dim, H: h, W: w,
		WRe: nn.NewParam(name+".wre", re),
		WIm: nn.NewParam(name+".wim", tensor.Randn(rng, 0.02, dim, h, w)),
	}
}

// ensureGrids sizes the layer's cached spectra and work grids once;
// subsequent steps reuse them so the spectral pass allocates nothing.
func (l *SpectralLayer) ensureGrids() {
	if l.work == nil {
		l.work = fft.NewGrid(l.H, l.W)
		l.gwork = fft.NewGrid(l.H, l.W)
		l.u = make([]*fft.Grid, l.Dim)
		for d := range l.u {
			l.u[d] = fft.NewGrid(l.H, l.W)
		}
	}
}

// Forward mixes x [Dim, H, W] spectrally.
func (l *SpectralLayer) Forward(x *tensor.Tensor) *tensor.Tensor {
	hw := l.H * l.W
	l.ensureGrids()
	l.out = tensor.Ensure(l.out, l.Dim, l.H, l.W)
	g := l.work
	wre, wim := l.WRe.W.Data(), l.WIm.W.Data()
	for d := 0; d < l.Dim; d++ {
		g.SetReal(x.Data()[d*hw : (d+1)*hw])
		fft.Forward2D(g)
		l.u[d].CopyFrom(g)
		l.mul = specMulJob{data: g.Data, wre: wre[d*hw : (d+1)*hw], wim: wim[d*hw : (d+1)*hw]}
		tensor.ParallelFor(hw, tensor.OpSpectralMul.Flops(hw), &l.mul)
		fft.Inverse2D(g)
		g.Real(l.out.Data()[d*hw : (d+1)*hw])
	}
	return l.out
}

// Backward accumulates multiplier gradients and returns dL/dx.
func (l *SpectralLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	hw := l.H * l.W
	l.ensureGrids()
	l.dx = tensor.Ensure(l.dx, l.Dim, l.H, l.W)
	wre, wim := l.WRe.W.Data(), l.WIm.W.Data()
	gre, gim := l.WRe.Grad.Data(), l.WIm.Grad.Data()
	gz, gu := l.work, l.gwork
	for d := 0; d < l.Dim; d++ {
		gz.SetReal(dy.Data()[d*hw : (d+1)*hw])
		fft.Forward2D(gz)
		l.bmul = specBwdJob{
			gz: gz.Data, u: l.u[d].Data, gu: gu.Data,
			wre: wre[d*hw : (d+1)*hw], wim: wim[d*hw : (d+1)*hw],
			gre: gre[d*hw : (d+1)*hw], gim: gim[d*hw : (d+1)*hw],
		}
		tensor.ParallelFor(hw, tensor.OpSpectralMulBwd.Flops(hw), &l.bmul)
		fft.Inverse2D(gu)
		gu.Real(l.dx.Data()[d*hw : (d+1)*hw])
	}
	return l.dx
}

// Params returns the complex multipliers as two real parameters.
func (l *SpectralLayer) Params() []*nn.Param { return []*nn.Param{l.WRe, l.WIm} }

// Model is the assembled AFNO forecaster.
type Model struct {
	Cfg Config

	Encoder  *nn.Linear // per-pixel C -> D
	Spectral []*SpectralLayer
	Mixers   []*nn.MLP  // per-pixel MLPs after each spectral layer
	Decoder  *nn.Linear // per-pixel D -> C

	params []*nn.Param
	hidden []*tensor.Tensor // residual inputs cached per layer
}

// New builds an AFNO model with deterministic initialization.
func New(cfg Config, seed uint64) *Model {
	rng := tensor.NewRNG(seed)
	m := &Model{
		Cfg:     cfg,
		Encoder: nn.NewLinear("afno.enc", cfg.Channels, cfg.EmbedDim, true, rng),
		Decoder: nn.NewLinear("afno.dec", cfg.EmbedDim, cfg.Channels, true, rng),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.Spectral = append(m.Spectral, NewSpectralLayer(fmt.Sprintf("afno.spec%d", i), cfg.EmbedDim, cfg.Height, cfg.Width, rng))
		m.Mixers = append(m.Mixers, nn.NewMLP(fmt.Sprintf("afno.mlp%d", i), cfg.EmbedDim, 2*cfg.EmbedDim, rng))
	}
	m.params = append(m.params, m.Encoder.Params()...)
	for i := range m.Spectral {
		m.params = append(m.params, m.Spectral[i].Params()...)
		m.params = append(m.params, m.Mixers[i].Params()...)
	}
	m.params = append(m.params, m.Decoder.Params()...)
	return m
}

// pixelsToTensor reinterprets [C, H, W] as a [H*W, C] matrix so the
// per-pixel linear layers can run as one matmul.
func pixelsToTensor(x *tensor.Tensor) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	out := tensor.New(h*w, c)
	for ci := 0; ci < c; ci++ {
		plane := x.Data()[ci*h*w : (ci+1)*h*w]
		for p := 0; p < h*w; p++ {
			out.Data()[p*c+ci] = plane[p]
		}
	}
	return out
}

// tensorToPixels is the inverse of pixelsToTensor.
func tensorToPixels(x *tensor.Tensor, h, w int) *tensor.Tensor {
	px, c := x.Dim(0), x.Dim(1)
	out := tensor.New(c, h, w)
	for ci := 0; ci < c; ci++ {
		plane := out.Data()[ci*h*w : (ci+1)*h*w]
		for p := 0; p < px; p++ {
			plane[p] = x.Data()[p*c+ci]
		}
	}
	return out
}

// Forward predicts the next 6-hour state from [C, H, W].
func (m *Model) Forward(x *tensor.Tensor) *tensor.Tensor {
	h, w := m.Cfg.Height, m.Cfg.Width
	emb := m.Encoder.Forward(pixelsToTensor(x)) // [HW, D]
	field := tensorToPixels(emb, h, w)          // [D, H, W]
	m.hidden = m.hidden[:0]
	for i := range m.Spectral {
		m.hidden = append(m.hidden, field)
		mixed := m.Spectral[i].Forward(field)
		mlpOut := m.Mixers[i].Forward(pixelsToTensor(mixed))
		field = tensor.AddInto(tensor.New(field.Shape()...), field, tensorToPixels(mlpOut, h, w))
	}
	return tensorToPixels(m.Decoder.Forward(pixelsToTensor(field)), h, w)
}

// Backward propagates d[C, H, W] through the network.
func (m *Model) Backward(dy *tensor.Tensor) *tensor.Tensor {
	h, w := m.Cfg.Height, m.Cfg.Width
	dField := tensorToPixels(m.Decoder.Backward(pixelsToTensor(dy)), h, w)
	for i := len(m.Spectral) - 1; i >= 0; i-- {
		dMlp := m.Mixers[i].Backward(pixelsToTensor(dField))
		dMixed := m.Spectral[i].Backward(tensorToPixels(dMlp, h, w))
		dField = tensor.AddInto(dField, dField, dMixed)
	}
	return tensorToPixels(m.Encoder.Backward(pixelsToTensor(dField)), h, w)
}

// ZeroGrads clears gradient accumulators.
func (m *Model) ZeroGrads() { nn.ZeroGrads(m.params) }

// NewOptimizer returns an AdamW over the model's parameters.
func (m *Model) NewOptimizer(weightDecay float64) *optim.AdamW {
	return optim.NewAdamW(m.params, weightDecay)
}

// Rollout applies the single-step model autoregressively `steps`
// times — how FourCastNet produces multi-day forecasts.
func (m *Model) Rollout(x *tensor.Tensor, steps int) *tensor.Tensor {
	state := x
	for s := 0; s < steps; s++ {
		state = m.Forward(state)
	}
	return state
}
