package nn

import (
	"fmt"

	"orbit/internal/tensor"
)

// PatchEmbed tokenizes a multi-channel climate field [C, H, W] into
// per-channel patch embeddings [C, T, D], T = (H/P)(W/P). Following
// ClimaX, every channel (climate variable) has its own embedding
// weights so physically different variables are not forced through a
// shared projection.
type PatchEmbed struct {
	Channels, Height, Width, Patch, Dim int
	Tokens                              int

	Weights []*Param // per channel: [P*P, D]
	Biases  []*Param // per channel: [D]

	patches []*tensor.Tensor // cached raw patches per channel [T, P*P]
	out     *tensor.Tensor   // owned output buffer [C, T, D]
	emb     []*tensor.Tensor // per-channel [T, D] views of out

	dy       []float32        // the gradient the dEmb views cover
	dEmb     []*tensor.Tensor // per-channel [T, D] views of dy
	dW       *tensor.Tensor   // one channel's weight gradient [P*P, D]
	dB       *tensor.Tensor   // one channel's bias gradient [D]
	dPatches *tensor.Tensor   // one channel's patch gradient [T, P*P]
	dx       *tensor.Tensor   // owned input gradient [C, H, W]
}

// NewPatchEmbed builds per-channel patch projections.
func NewPatchEmbed(name string, channels, height, width, patch, dim int, rng *tensor.RNG) *PatchEmbed {
	if height%patch != 0 || width%patch != 0 {
		panic(fmt.Sprintf("nn: image %dx%d not divisible by patch %d", height, width, patch))
	}
	pe := &PatchEmbed{
		Channels: channels, Height: height, Width: width, Patch: patch, Dim: dim,
		Tokens: (height / patch) * (width / patch),
	}
	for c := 0; c < channels; c++ {
		pe.Weights = append(pe.Weights, NewParam(
			fmt.Sprintf("%s.w%d", name, c), tensor.XavierUniform(rng, patch*patch, dim)))
		pe.Biases = append(pe.Biases, NewParam(fmt.Sprintf("%s.b%d", name, c), tensor.New(dim)))
	}
	return pe
}

// ExtractPatches tokenizes one channel image [H, W] into its
// (H/P)·(W/P) row-major P×P patches, one [P·P] row of dst each. The
// one definition of the token layout, shared with infer.Plan.
func ExtractPatches(dst, img []float32, height, width, patch int) {
	p := patch
	rows, cols := height/p, width/p
	for pr := 0; pr < rows; pr++ {
		for pc := 0; pc < cols; pc++ {
			base := (pr*cols + pc) * p * p
			for i := 0; i < p; i++ {
				src := (pr*p+i)*width + pc*p
				copy(dst[base+i*p:base+(i+1)*p], img[src:src+p])
			}
		}
	}
}

// scatterPatches is the inverse of ExtractPatches: accumulates [T,P*P]
// patch values back into an [H, W] image.
func (pe *PatchEmbed) scatterPatches(patches *tensor.Tensor, img []float32) {
	p := pe.Patch
	rows, cols := pe.Height/p, pe.Width/p
	d := patches.Data()
	for pr := 0; pr < rows; pr++ {
		for pc := 0; pc < cols; pc++ {
			tok := pr*cols + pc
			base := tok * p * p
			for i := 0; i < p; i++ {
				dst := (pr*p+i)*pe.Width + pc*p
				copy(img[dst:dst+p], d[base+i*p:base+(i+1)*p])
			}
		}
	}
}

// Forward maps [C, H, W] -> [C, T, D].
func (pe *PatchEmbed) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkRank("PatchEmbed", x, 3)
	if x.Dim(0) != pe.Channels || x.Dim(1) != pe.Height || x.Dim(2) != pe.Width {
		panic(fmt.Sprintf("nn: PatchEmbed input %v, want [%d %d %d]", x.Shape(), pe.Channels, pe.Height, pe.Width))
	}
	hw := pe.Height * pe.Width
	td := pe.Tokens * pe.Dim
	if pe.out == nil {
		// The geometry is fixed at construction, so the buffers and the
		// per-channel views of out are built once.
		pe.out = tensor.New(pe.Channels, pe.Tokens, pe.Dim)
		for c := 0; c < pe.Channels; c++ {
			pe.patches = append(pe.patches, tensor.New(pe.Tokens, pe.Patch*pe.Patch))
			pe.emb = append(pe.emb, tensor.FromSlice(pe.out.Data()[c*td:(c+1)*td], pe.Tokens, pe.Dim))
		}
	}
	for c := 0; c < pe.Channels; c++ {
		ExtractPatches(pe.patches[c].Data(), x.Data()[c*hw:(c+1)*hw], pe.Height, pe.Width, pe.Patch)
		tensor.MatMulBiasInto(pe.emb[c], pe.patches[c], pe.Weights[c].W, pe.Biases[c].W)
	}
	return pe.out
}

// Backward accumulates per-channel weight gradients and returns the
// gradient with respect to the input field [C, H, W] in a module-owned
// buffer.
func (pe *PatchEmbed) Backward(dy *tensor.Tensor) *tensor.Tensor {
	checkRank("PatchEmbed", dy, 3)
	hw := pe.Height * pe.Width
	td := pe.Tokens * pe.Dim
	if pe.dx == nil {
		pe.dW = tensor.New(pe.Patch*pe.Patch, pe.Dim)
		pe.dB = tensor.New(pe.Dim)
		pe.dPatches = tensor.New(pe.Tokens, pe.Patch*pe.Patch)
		pe.dx = tensor.New(pe.Channels, pe.Height, pe.Width)
	}
	if d := dy.Data(); len(pe.dy) != len(d) || &pe.dy[0] != &d[0] {
		// Like Forward's views of out, the views of dy are rebuilt only
		// when the caller hands in a different gradient buffer.
		pe.dy, pe.dEmb = d, pe.dEmb[:0]
		for c := 0; c < pe.Channels; c++ {
			pe.dEmb = append(pe.dEmb, tensor.FromSlice(d[c*td:(c+1)*td], pe.Tokens, pe.Dim))
		}
	}
	for c, dEmb := range pe.dEmb {
		pe.Weights[c].Grad.AddInPlace(tensor.MatMulTransAInto(pe.dW, pe.patches[c], dEmb))
		pe.dB.Zero()
		pe.Biases[c].Grad.AddInPlace(tensor.SumRowsAccInto(pe.dB, dEmb))
		tensor.MatMulTransBInto(pe.dPatches, dEmb, pe.Weights[c].W)
		pe.scatterPatches(pe.dPatches, pe.dx.Data()[c*hw:(c+1)*hw])
	}
	return pe.dx
}

// Params returns all per-channel projections.
func (pe *PatchEmbed) Params() []*Param {
	ps := make([]*Param, 0, 2*pe.Channels)
	for c := 0; c < pe.Channels; c++ {
		ps = append(ps, pe.Weights[c], pe.Biases[c])
	}
	return ps
}

// PredictionHead maps token embeddings [T, D] back to output fields
// [Cout, H, W]: LayerNorm, a linear projection to P*P*Cout per token,
// then unpatchify.
type PredictionHead struct {
	OutChannels, Height, Width, Patch, Dim int
	Tokens                                 int

	Norm *LayerNorm
	Proj *Linear
}

// NewPredictionHead builds the decoder head.
func NewPredictionHead(name string, outChannels, height, width, patch, dim int, rng *tensor.RNG) *PredictionHead {
	return &PredictionHead{
		OutChannels: outChannels, Height: height, Width: width, Patch: patch, Dim: dim,
		Tokens: (height / patch) * (width / patch),
		Norm:   NewLayerNorm(name+".norm", dim),
		Proj:   NewLinear(name+".proj", dim, patch*patch*outChannels, true, rng),
	}
}

// Forward maps [T, D] -> [Cout, H, W]. Unlike the other layers' the
// result is a fresh tensor: it is the model's prediction, which
// callers keep across Forward calls.
func (h *PredictionHead) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkRank("PredictionHead", x, 2)
	y := h.Proj.Forward(h.Norm.Forward(x)) // [T, P*P*Cout]
	out := tensor.New(h.OutChannels, h.Height, h.Width)
	Unpatchify(out.Data(), y.Data(), h.OutChannels, h.Height, h.Width, h.Patch)
	return out
}

// Backward maps d[Cout, H, W] -> d[T, D].
func (h *PredictionHead) Backward(dy *tensor.Tensor) *tensor.Tensor {
	checkRank("PredictionHead", dy, 3)
	dTok := tensor.New(h.Tokens, h.Patch*h.Patch*h.OutChannels)
	h.patchify(dy, dTok)
	return h.Norm.Backward(h.Proj.Backward(dTok))
}

// Unpatchify scatters [T, P*P*Cout] token outputs into [Cout, H, W].
// Per token, the projection output is laid out channel-major then
// row-major within the patch. The one definition of the output layout,
// shared with infer.Plan.
func Unpatchify(out, tok []float32, outChannels, height, width, patch int) {
	p := patch
	rows, cols := height/p, width/p
	hw := height * width
	pp := p * p
	for t := 0; t < rows*cols; t++ {
		pr, pc := t/cols, t%cols
		rowBase := t * pp * outChannels
		for c := 0; c < outChannels; c++ {
			for i := 0; i < p; i++ {
				dst := c*hw + (pr*p+i)*width + pc*p
				src := rowBase + c*pp + i*p
				copy(out[dst:dst+p], tok[src:src+p])
			}
		}
	}
}

// patchify is the exact adjoint of Unpatchify.
func (h *PredictionHead) patchify(field *tensor.Tensor, tok *tensor.Tensor) {
	p := h.Patch
	cols := h.Width / p
	hw := h.Height * h.Width
	pp := p * p
	td := tok.Data()
	fd := field.Data()
	for t := 0; t < h.Tokens; t++ {
		pr, pc := t/cols, t%cols
		rowBase := t * pp * h.OutChannels
		for c := 0; c < h.OutChannels; c++ {
			for i := 0; i < p; i++ {
				src := c*hw + (pr*p+i)*h.Width + pc*p
				dst := rowBase + c*pp + i*p
				copy(td[dst:dst+p], fd[src:src+p])
			}
		}
	}
}

// Params returns the head's parameters.
func (h *PredictionHead) Params() []*Param {
	return append(append([]*Param{}, h.Norm.Params()...), h.Proj.Params()...)
}
