// Package vit assembles the ORBIT vision-transformer model from the
// nn layers, following the ClimaX architecture (paper Fig. 1): per-
// channel patch tokenization, cross-attention variable aggregation,
// learned positional and lead-time embeddings, a stack of transformer
// blocks (with the ORBIT QK layer-norm stabilization), and a
// prediction head that projects embeddings back to climate fields.
package vit

import (
	"fmt"

	"orbit/internal/nn"
	"orbit/internal/tensor"
)

// Config describes an ORBIT model variant.
type Config struct {
	Name string
	// Input geometry.
	Channels, Height, Width, Patch int
	// OutChannels is the number of predicted variables (fine-tuning
	// predicts a 4-variable subset; pre-training predicts all).
	OutChannels int
	// Transformer shape.
	EmbedDim, Layers, Heads int
	// QKNorm enables the ORBIT attention-logit stabilization.
	QKNorm bool
}

// Tokens returns the sequence length.
func (c Config) Tokens() int { return (c.Height / c.Patch) * (c.Width / c.Patch) }

// Validate reports configuration errors. The non-positive checks run
// before the divisibility checks: a zero patch or head count from an
// untrusted source (a corrupt checkpoint header, say) must produce an
// error, not a modulo-by-zero panic — the checkpoint fuzzer found
// exactly that.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.OutChannels <= 0:
		return fmt.Errorf("vit: bad channel counts %d/%d", c.Channels, c.OutChannels)
	case c.Height <= 0 || c.Width <= 0 || c.Patch <= 0:
		return fmt.Errorf("vit: bad grid %dx%d patch %d", c.Height, c.Width, c.Patch)
	case c.EmbedDim <= 0 || c.Heads <= 0:
		return fmt.Errorf("vit: bad transformer shape dim %d heads %d", c.EmbedDim, c.Heads)
	case c.Height%c.Patch != 0 || c.Width%c.Patch != 0:
		return fmt.Errorf("vit: grid %dx%d not divisible by patch %d", c.Height, c.Width, c.Patch)
	case c.EmbedDim%c.Heads != 0:
		return fmt.Errorf("vit: embed dim %d not divisible by heads %d", c.EmbedDim, c.Heads)
	case c.Layers <= 0:
		return fmt.Errorf("vit: need at least one layer")
	}
	return nil
}

// Paper model configurations (Sec. IV "Model Configuration"). These
// are used by the analytical performance model; real-numerics runs use
// the scaled-down variants below with the identical code path.
var (
	// ORBIT115M is the ClimaX-scale model: 1024 embed, 8 layers,
	// 16 heads (≈115 M parameters at 48 channels).
	ORBIT115M = Config{Name: "ORBIT-115M", Channels: 48, OutChannels: 48, Height: 128, Width: 256, Patch: 8, EmbedDim: 1024, Layers: 8, Heads: 16, QKNorm: true}
	// ORBIT1B: 3072 embed, 8 layers, 16 heads (≈1 B parameters).
	ORBIT1B = Config{Name: "ORBIT-1B", Channels: 48, OutChannels: 48, Height: 128, Width: 256, Patch: 8, EmbedDim: 3072, Layers: 8, Heads: 16, QKNorm: true}
	// ORBIT10B: 8192 embed, 11 layers, 32 heads (≈10 B parameters).
	ORBIT10B = Config{Name: "ORBIT-10B", Channels: 48, OutChannels: 48, Height: 128, Width: 256, Patch: 8, EmbedDim: 8192, Layers: 11, Heads: 32, QKNorm: true}
	// ORBIT113B: 12288 embed, 56 layers, 64 heads (≈113 B parameters).
	ORBIT113B = Config{Name: "ORBIT-113B", Channels: 48, OutChannels: 48, Height: 128, Width: 256, Patch: 8, EmbedDim: 12288, Layers: 56, Heads: 64, QKNorm: true}
)

// PaperConfigs lists the four scaling-study model sizes in ascending
// order.
func PaperConfigs() []Config {
	return []Config{ORBIT115M, ORBIT1B, ORBIT10B, ORBIT113B}
}

// WithChannels returns a copy of c with a different channel count
// (the paper evaluates both 48 and 91 variables).
func (c Config) WithChannels(channels int) Config {
	c.Channels = channels
	c.OutChannels = channels
	return c
}

// Tiny returns a laptop-scale config that preserves the architecture:
// used by tests and examples for real-numerics training.
func Tiny(channels, height, width int) Config {
	return Config{
		Name: "ORBIT-Tiny", Channels: channels, OutChannels: channels,
		Height: height, Width: width, Patch: 4,
		EmbedDim: 32, Layers: 2, Heads: 4, QKNorm: true,
	}
}

// Model is the assembled ORBIT vision transformer.
type Model struct {
	Config Config

	Patch  *nn.PatchEmbed
	Agg    *nn.VariableAggregation
	Pos    *nn.PositionalEmbedding
	Lead   *nn.LeadTimeEmbedding
	Blocks []*nn.TransformerBlock
	Head   *nn.PredictionHead

	params []*nn.Param
}

// New builds a model with deterministic initialization from the seed.
func New(cfg Config, seed uint64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	m := &Model{
		Config: cfg,
		Patch:  nn.NewPatchEmbed("patch", cfg.Channels, cfg.Height, cfg.Width, cfg.Patch, cfg.EmbedDim, rng),
		Agg:    nn.NewVariableAggregation("agg", cfg.Channels, cfg.EmbedDim, rng),
		Pos:    nn.NewPositionalEmbedding("pos", cfg.Tokens(), cfg.EmbedDim, rng),
		Lead:   nn.NewLeadTimeEmbedding("lead", cfg.EmbedDim, rng),
		Head:   nn.NewPredictionHead("head", cfg.OutChannels, cfg.Height, cfg.Width, cfg.Patch, cfg.EmbedDim, rng),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.Blocks = append(m.Blocks, nn.NewTransformerBlock(fmt.Sprintf("block%d", i), cfg.EmbedDim, cfg.Heads, cfg.QKNorm, rng))
	}
	m.params = append(m.params, m.Patch.Params()...)
	m.params = append(m.params, m.Agg.Params()...)
	m.params = append(m.params, m.Pos.Params()...)
	m.params = append(m.params, m.Lead.Params()...)
	for _, b := range m.Blocks {
		m.params = append(m.params, b.Params()...)
	}
	m.params = append(m.params, m.Head.Params()...)
	return m, nil
}

// Forward runs one sample [C, H, W] with the given forecast lead,
// producing [OutChannels, H, W].
func (m *Model) Forward(x *tensor.Tensor, leadHours float64) *tensor.Tensor {
	tok := m.Agg.Forward(m.Patch.Forward(x)) // [T, D]
	tok = m.Pos.Forward(tok)
	tok = m.Lead.ForwardWithLead(tok, leadHours)
	for _, b := range m.Blocks {
		tok = b.Forward(tok)
	}
	return m.Head.Forward(tok)
}

// Backward propagates the loss gradient d[OutChannels, H, W] through
// the whole model, accumulating parameter gradients. Returns the
// gradient with respect to the input field.
func (m *Model) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dTok := m.Head.Backward(dy)
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		dTok = m.Blocks[i].Backward(dTok)
	}
	dTok = m.Lead.Backward(dTok)
	dTok = m.Pos.Backward(dTok)
	return m.Patch.Backward(m.Agg.Backward(dTok))
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param { return m.params }

// InferenceReplica returns a forward-only view of the model: a fresh
// module graph with its own activation scratch — safe to drive
// concurrently with m and with other replicas — whose parameters
// alias m's weight tensors (no copy) and hold no gradient
// accumulators. Weight updates through m are visible to every
// replica; Backward on a replica panics.
func (m *Model) InferenceReplica() *Model {
	r, err := New(m.Config, 0)
	if err != nil {
		// m was built from this config, so it cannot fail to validate.
		panic(fmt.Sprintf("vit: InferenceReplica: %v", err))
	}
	for i, p := range r.params {
		p.W = m.params[i].W
	}
	nn.ReleaseGrads(r.params)
	return r
}

// NumParams returns the parameter count of the built model.
func (m *Model) NumParams() int64 { return nn.CountParams(m.params) }

// ZeroGrads clears all gradient accumulators.
func (m *Model) ZeroGrads() { nn.ZeroGrads(m.params) }

// ParamCount computes the parameter count of a configuration
// analytically, without allocating the model — required for the
// 113 B-parameter paper configs that cannot be materialized in memory.
func ParamCount(c Config) int64 {
	d := int64(c.EmbedDim)
	pp := int64(c.Patch * c.Patch)
	t := int64(c.Tokens())
	ch := int64(c.Channels)

	patch := ch * (pp*d + d)
	agg := ch*d + d + 2*d*d // varEmbed + query + WK,WV (no bias)
	pos := t * d
	lead := d*d + d

	attn := 4 * (d*d + d) // WQ,WK,WV,WO with bias
	if c.QKNorm {
		attn += 4 * (d / int64(c.Heads)) // per-head γ,β for Q and K norms
	}
	mlp := d*4*d + 4*d + 4*d*d + d
	lns := 4 * d // LN1 + LN2
	block := attn + mlp + lns

	head := 2*d + d*pp*int64(c.OutChannels) + pp*int64(c.OutChannels)

	return patch + agg + pos + lead + int64(c.Layers)*block + head
}
