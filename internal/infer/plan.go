// Package infer is ORBIT's forward-only inference subsystem: the
// serving counterpart of internal/train. It loads any checkpoint kind
// (weights-only v1, training-state v2, or a PR 3 sharded manifest via
// the reshard path), pre-plans zero-allocation workspaces over the
// destination-passing tensor kernels, and executes batched
// autoregressive rollouts — initial condition to N lead steps — with
// per-step wRMSE/wACC scoring against climatology.
//
// The layer contract differs from package nn: nn modules cache
// activations for a later Backward, so their forward pass pays for
// memory inference never uses. The Plan in this file runs the model
// forward over inference-only buffers with a fused batch dimension
// (B samples run as one [B·T, D] token matrix through every linear
// layer and through attention, whose B·H per-head products read and
// write each head's column block of that matrix in place). It owns that
// orchestration — buffer planning, batch fusion, the quantized weight
// operands — and none of the arithmetic: every matrix product is a
// tensor kernel and every other leaf (layer-norm rows, the
// aggregation's key and score/softmax/mix, lead-time features, patch
// extract, unpatchify) is the destination-passing kernel in package
// nn that the nn modules themselves wrap, called here without their
// backward caches. A layer's rounding sequence is therefore defined in
// one place, and a Plan's output is bit-identical to the serial
// vit.Model.Forward for each sample — the equivalence suite pins this.
package infer

import (
	"fmt"
	"math"

	"orbit/internal/nn"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

// siteW is one matmul site's weight operand. When the plan serves a
// block-quantized checkpoint the site holds the weight's quantized
// container and the dequant-fused kernel reads it directly. Otherwise
// q is nil and the kernel reads the model's own float32 weight in
// place. Either way the plan holds no weight-sized buffer of its own:
// an f32 plan costs its activations, a quantized one never
// materializes a float32 matrix beyond a 16-column strip.
type siteW struct {
	q *tensor.Quantized
}

// matmul runs dst = x·W + bias (nil = none) through whichever operand
// the site holds. Both paths are bit-identical for the same underlying
// f32 weight values: the fused quantized kernel runs every output
// element through the same reduction chain as the f32 product over the
// dequantized weight.
func (s *siteW) matmul(dst, x, w, bias *tensor.Tensor) *tensor.Tensor {
	if s.q != nil {
		return tensor.MatMulQuantInto(dst, x, s.q, bias)
	}
	return tensor.MatMulBiasInto(dst, x, w, bias)
}

// blockSites holds the weight operands of one transformer block.
type blockSites struct {
	wq, wk, wv, wo, fc1, fc2 siteW
}

// batchBufs are the tensor headers for one fused batch size n. The
// headers view the Plan's shared backing arrays (allocated once for
// MaxBatch), so building the set for a new n costs only slice headers
// and happens once per distinct size.
type batchBufs struct {
	patches *tensor.Tensor   // [n·T, P²] per-channel patch staging
	e       *tensor.Tensor   // [C·n·T, D] aggregation input
	eC      []*tensor.Tensor // per-channel [n·T, D] views of e
	mix     *tensor.Tensor   // [n·T, D] aggregation mix, the value projection's input
	x       *tensor.Tensor   // [n·T, D] token stream (stem out, block in/out)
	lnBuf   *tensor.Tensor   // [n·T, D] layer-norm output
	q, k, v *tensor.Tensor   // [n·T, D], head h in columns [h·d, (h+1)·d)
	qn, kn  *tensor.Tensor   // post-QK-norm q/k (alias q/k without QKNorm)
	probs   *tensor.Tensor   // [n·H, T, T]
	concat  *tensor.Tensor   // [n·T, D] context, written per head in place
	attnOut *tensor.Tensor   // [n·T, D]
	h       *tensor.Tensor   // [n·T, D] post-attention residual
	fc1     *tensor.Tensor   // [n·T, 4D] MLP pre-activation, then its GELU in place
	mlpOut  *tensor.Tensor   // [n·T, D]
	headTok *tensor.Tensor   // [n·T, P²·OutC]

	xRows []*tensor.Tensor // [T, D] rows of x per sample
	outs  []*tensor.Tensor // [OutC, H, W] per-sample outputs
}

// Plan is a pre-planned zero-allocation forward executor for a model
// at a bounded batch size. A Plan is not safe for concurrent use; the
// Engine gives each worker its own.
type Plan struct {
	Model    *vit.Model
	MaxBatch int

	// Geometry, resolved once.
	c, h, w, p, t, d, heads, hd, outC int

	patchW []siteW
	aggV   siteW
	leadW  siteW
	blocks []blockSites
	headW  siteW

	// Backing arrays sized for MaxBatch, shared by every batchBufs.
	patchesB, eB, mixB         []float32
	xB, lnB, qB, kB, vB        []float32
	qnB, knB                   []float32
	probsB, concatB, attnB, hB []float32
	fc1B, mlpB, headB          []float32
	outsB                      []float32
	aggRow                     []float32 // eight tokens' aggregation weights
	aggKey                     []float32 // the aggregation's key W_K·q
	leadFeat, leadOff          *tensor.Tensor

	sized map[int]*batchBufs
}

// NewPlan builds a forward plan for up to maxBatch fused samples,
// allocating every workspace up front so steady-state Forward calls
// perform no heap allocations.
func NewPlan(m *vit.Model, maxBatch int) *Plan {
	return NewPlanQ(m, maxBatch, nil)
}

// NewPlanQ builds a plan whose matmul sites read the given quantized
// weight containers (keyed by parameter name, as LoadModelQuantized
// returns them) through the dequant-fused kernel. Weights without a
// container — norms, biases, embeddings, and any matrix the saver left
// float32 — are read from the model in place. A nil or empty map degenerates to
// NewPlan.
func NewPlanQ(m *vit.Model, maxBatch int, qs map[string]*tensor.Quantized) *Plan {
	if maxBatch < 1 {
		maxBatch = 1
	}
	cfg := m.Config
	p := &Plan{
		Model:    m,
		MaxBatch: maxBatch,
		c:        cfg.Channels,
		h:        cfg.Height,
		w:        cfg.Width,
		p:        cfg.Patch,
		t:        cfg.Tokens(),
		d:        cfg.EmbedDim,
		heads:    cfg.Heads,
		hd:       cfg.EmbedDim / cfg.Heads,
		outC:     cfg.OutChannels,
		patchW:   make([]siteW, cfg.Channels),
		blocks:   make([]blockSites, len(m.Blocks)),
		sized:    make(map[int]*batchBufs),
	}
	if len(qs) > 0 {
		// Resolve containers by the weight tensor they quantize: the
		// checkpoint keys them by parameter name, and matching through
		// Params() keeps the plan free of name-pattern coupling.
		byTensor := make(map[*tensor.Tensor]*tensor.Quantized, len(qs))
		for _, par := range m.Params() {
			if q, ok := qs[par.Name]; ok {
				byTensor[par.W] = q
			}
		}
		for c := range p.patchW {
			p.patchW[c].q = byTensor[m.Patch.Weights[c].W]
		}
		p.aggV.q = byTensor[m.Agg.WV.Weight.W]
		p.leadW.q = byTensor[m.Lead.Proj.Weight.W]
		for li, blk := range m.Blocks {
			ws := &p.blocks[li]
			ws.wq.q = byTensor[blk.Attn.WQ.Weight.W]
			ws.wk.q = byTensor[blk.Attn.WK.Weight.W]
			ws.wv.q = byTensor[blk.Attn.WV.Weight.W]
			ws.wo.q = byTensor[blk.Attn.WO.Weight.W]
			ws.fc1.q = byTensor[blk.MLP.FC1.Weight.W]
			ws.fc2.q = byTensor[blk.MLP.FC2.Weight.W]
		}
		p.headW.q = byTensor[m.Head.Proj.Weight.W]
	}
	B, T, D, C := maxBatch, p.t, p.d, p.c
	pp := p.p * p.p
	p.patchesB = make([]float32, B*T*pp)
	p.eB = make([]float32, C*B*T*D)
	for _, buf := range []*[]float32{&p.mixB, &p.xB, &p.lnB, &p.qB, &p.kB, &p.vB, &p.concatB, &p.attnB, &p.hB, &p.mlpB} {
		*buf = make([]float32, B*T*D)
	}
	if cfg.QKNorm {
		p.qnB = make([]float32, B*T*D)
		p.knB = make([]float32, B*T*D)
	}
	p.probsB = make([]float32, B*p.heads*T*T)
	p.fc1B = make([]float32, B*T*4*D)
	p.headB = make([]float32, B*T*pp*p.outC)
	p.outsB = make([]float32, B*p.outC*p.h*p.w)
	p.aggRow = make([]float32, 8*C)
	p.aggKey = make([]float32, D)
	p.leadFeat = tensor.New(1, D)
	p.leadOff = tensor.New(1, D)
	return p
}

// bufs returns (building once) the tensor headers for batch size n.
func (p *Plan) bufs(n int) *batchBufs {
	if bb, ok := p.sized[n]; ok {
		return bb
	}
	if n < 1 || n > p.MaxBatch {
		panic(fmt.Sprintf("infer: batch %d outside plan capacity [1,%d]", n, p.MaxBatch))
	}
	T, D, C, H := p.t, p.d, p.c, p.heads
	pp := p.p * p.p
	bb := &batchBufs{
		patches: tensor.FromSlice(p.patchesB[:n*T*pp], n*T, pp),
		e:       tensor.FromSlice(p.eB[:C*n*T*D], C*n*T, D),
		mix:     tensor.FromSlice(p.mixB[:n*T*D], n*T, D),
		x:       tensor.FromSlice(p.xB[:n*T*D], n*T, D),
		lnBuf:   tensor.FromSlice(p.lnB[:n*T*D], n*T, D),
		q:       tensor.FromSlice(p.qB[:n*T*D], n*T, D),
		k:       tensor.FromSlice(p.kB[:n*T*D], n*T, D),
		v:       tensor.FromSlice(p.vB[:n*T*D], n*T, D),
		probs:   tensor.FromSlice(p.probsB[:n*H*T*T], n*H, T, T),
		concat:  tensor.FromSlice(p.concatB[:n*T*D], n*T, D),
		attnOut: tensor.FromSlice(p.attnB[:n*T*D], n*T, D),
		h:       tensor.FromSlice(p.hB[:n*T*D], n*T, D),
		fc1:     tensor.FromSlice(p.fc1B[:n*T*4*D], n*T, 4*D),
		mlpOut:  tensor.FromSlice(p.mlpB[:n*T*D], n*T, D),
		headTok: tensor.FromSlice(p.headB[:n*T*pp*p.outC], n*T, pp*p.outC),
	}
	if p.Model.Config.QKNorm {
		bb.qn = tensor.FromSlice(p.qnB[:n*T*D], n*T, D)
		bb.kn = tensor.FromSlice(p.knB[:n*T*D], n*T, D)
	} else {
		bb.qn, bb.kn = bb.q, bb.k
	}
	for c := 0; c < C; c++ {
		bb.eC = append(bb.eC, tensor.FromSlice(p.eB[c*n*T*D:(c+1)*n*T*D], n*T, D))
	}
	for b := 0; b < n; b++ {
		bb.xRows = append(bb.xRows, tensor.FromSlice(p.xB[b*T*D:(b+1)*T*D], T, D))
		sz := p.outC * p.h * p.w
		bb.outs = append(bb.outs, tensor.FromSlice(p.outsB[b*sz:(b+1)*sz], p.outC, p.h, p.w))
	}
	p.sized[n] = bb
	return bb
}

// Forward runs the fused batched forward over len(xs) samples (each
// [C, H, W]) with per-sample lead times, returning plan-owned
// [OutC, H, W] prediction tensors valid until the plan's next call.
// Per sample, the result is bit-identical to Model.Forward.
func (p *Plan) Forward(xs []*tensor.Tensor, leads []float64) []*tensor.Tensor {
	n := len(xs)
	if n == 0 || n != len(leads) {
		panic(fmt.Sprintf("infer: Forward with %d samples, %d leads", n, len(leads)))
	}
	bb := p.bufs(n)
	m := p.Model

	// Patch embedding, fused over the batch per channel: samples stack
	// along the token rows, so one matmul per channel replaces n.
	hw := p.h * p.w
	for c := 0; c < p.c; c++ {
		for b, x := range xs {
			nn.ExtractPatches(bb.patches.Data()[b*p.t*p.p*p.p:], x.Data()[c*hw:(c+1)*hw], p.h, p.w, p.p)
		}
		p.patchW[c].matmul(bb.eC[c], bb.patches, m.Patch.Weights[c].W, m.Patch.Biases[c].W)
	}

	// Variable aggregation over n·T fused token positions. The patch
	// stage wrote emb into e, so e[c,t,:] = emb[c,t,:] + varEmbed[c,:]
	// runs in place. The key W_K·q reads the model's float32 W_K — under
	// a quantized checkpoint the dequantized weight LoadModelQuantized
	// returns — so W_K has no site; only the mix is projected, by W_V.
	tTot := n * p.t
	ed, ve := bb.e.Data(), m.Agg.VarEmbed.W.Data()
	for ci := 0; ci < p.c; ci++ {
		v := ve[ci*p.d : (ci+1)*p.d]
		for ti := 0; ti < tTot; ti++ {
			tensor.AddSlice(ed[(ci*tTot+ti)*p.d:], v)
		}
	}
	nn.AggregationKey(p.aggKey, m.Agg.WK.Weight.W.Data(), m.Agg.Query.W.Data())
	nn.AggregateTokens(bb.mix.Data(), nil, p.aggRow, ed, p.aggKey, tTot, 0, tTot)
	p.aggV.matmul(bb.x, bb.mix, m.Agg.WV.Weight.W, nil)

	// Positional embedding per sample, lead-time conditioning per
	// sample (leads may differ across a coalesced batch).
	pos := m.Pos.Embed.W.Data()[:p.t*p.d]
	xd := bb.x.Data()
	for b := 0; b < n; b++ {
		tensor.AddSlice(xd[b*len(pos):], pos)
	}
	for b := 0; b < n; b++ {
		nn.LeadTimeFeatures(p.leadFeat.Data(), leads[b])
		p.leadW.matmul(p.leadOff, p.leadFeat, m.Lead.Proj.Weight.W, m.Lead.Proj.Bias.W)
		tensor.AddRowVectorInto(bb.xRows[b], bb.xRows[b], p.leadOff)
	}

	// Transformer blocks, token rows fused across the batch. Attention
	// runs n·H batch entries, one per (sample, head): the products read
	// each head's column block of q, k and v where the projections wrote
	// it and write its context into its block of concat. The QK-norm
	// rows are the same d-wide rows in either layout.
	scale := float32(1 / math.Sqrt(float64(p.hd)))
	for li, blk := range m.Blocks {
		ws := &p.blocks[li]
		layerNorm(bb.lnBuf, bb.x, blk.LN1)
		ws.wq.matmul(bb.q, bb.lnBuf, blk.Attn.WQ.Weight.W, blk.Attn.WQ.Bias.W)
		ws.wk.matmul(bb.k, bb.lnBuf, blk.Attn.WK.Weight.W, blk.Attn.WK.Bias.W)
		ws.wv.matmul(bb.v, bb.lnBuf, blk.Attn.WV.Weight.W, blk.Attn.WV.Bias.W)
		if blk.Attn.QKNorm {
			layerNorm(bb.qn, bb.q, blk.Attn.QNorm)
			layerNorm(bb.kn, bb.k, blk.Attn.KNorm)
		}
		tensor.BatchedMatMulTransBScaledInto(bb.probs, bb.qn, bb.kn, scale)
		tensor.SoftmaxInto(bb.probs, bb.probs)
		tensor.BatchedMatMulInto(bb.concat, bb.probs, bb.v)
		ws.wo.matmul(bb.attnOut, bb.concat, blk.Attn.WO.Weight.W, blk.Attn.WO.Bias.W)
		tensor.AddInto(bb.h, bb.x, bb.attnOut)

		layerNorm(bb.lnBuf, bb.h, blk.LN2)
		ws.fc1.matmul(bb.fc1, bb.lnBuf, blk.MLP.FC1.Weight.W, blk.MLP.FC1.Bias.W)
		tensor.GELUCachedInto(bb.fc1, nil, bb.fc1)
		ws.fc2.matmul(bb.mlpOut, bb.fc1, blk.MLP.FC2.Weight.W, blk.MLP.FC2.Bias.W)
		tensor.AddInto(bb.x, bb.h, bb.mlpOut)
	}

	// Prediction head: fused norm + projection, per-sample unpatchify.
	layerNorm(bb.lnBuf, bb.x, m.Head.Norm)
	p.headW.matmul(bb.headTok, bb.lnBuf, m.Head.Proj.Weight.W, m.Head.Proj.Bias.W)
	for b := 0; b < n; b++ {
		nn.Unpatchify(bb.outs[b].Data(), bb.headTok.Data()[b*p.t*p.p*p.p*p.outC:], p.outC, p.h, p.w, p.p)
	}
	return bb.outs[:n]
}

// layerNorm writes ln's normalization of every ln.Dim-wide row of x to
// dst through nn's row kernel, keeping none of the backward caches.
func layerNorm(dst, x *tensor.Tensor, ln *nn.LayerNorm) {
	nn.LayerNormRows(dst.Data(), nil, nil, x.Data(), ln.Gamma.W.Data(), ln.Beta.W.Data(), ln.Eps, 0, x.Len()/ln.Dim)
}
