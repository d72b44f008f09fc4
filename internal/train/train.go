// Package train implements ORBIT's pre-training and fine-tuning loops
// at real-numerics scale: latitude-weighted MSE objective, AdamW with
// cosine warmup schedule, gradient clipping, optional bf16
// mixed-precision emulation with dynamic gradient scaling, multi-lead
// fine-tuning on the output-variable subset, and wACC evaluation
// against climatology — the machinery behind the paper's Figs. 8–10.
//
// Two loop families live here. Trainer (train.go) is the
// single-process loop over a real model; its full state — weights,
// optimizer moments, data-stream RNG, loss-scaler — round-trips
// through CaptureState/RestoreTrainer so a resumed run continues
// bit-identically. RunElastic (elastic.go) is the distributed
// fault-tolerant loop over Hybrid-STOP engines on the simulated
// cluster: sharded checkpoints and node-loss recovery with
// resharding. A rebuild keeps the layout while it fits the survivors,
// and otherwise the parallelism auto-planner (internal/plan) chooses
// the post-fault layout and tuning knobs.
// Its invariant: the global batch is fixed in the config and each
// sample is a pure function of (step seed, global index), so the loss
// trajectory is layout-independent up to float32 reduction grouping.
package train

import (
	"fmt"

	"orbit/internal/bf16"
	"orbit/internal/ckpt"
	"orbit/internal/climate"
	"orbit/internal/metrics"
	"orbit/internal/nn"
	"orbit/internal/optim"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

// DataSource serves training samples; both climate.Dataset and
// climate.PretrainCorpus satisfy it.
type DataSource interface {
	Len() int
	At(i int) climate.Sample
}

// Config holds training hyperparameters.
type Config struct {
	LR          float64
	MinLR       float64
	WeightDecay float64
	ClipNorm    float64
	WarmupSteps int
	TotalSteps  int
	BatchSize   int
	Seed        uint64
	// MixedPrecision rounds gradients through bf16 and drives the
	// dynamic gradient scaler, reproducing the paper's numerics path.
	MixedPrecision bool
	// ResidualChans, when non-nil, trains the model to predict the
	// *change* of those input channels instead of the absolute state
	// (the tendency trick of GraphCast/FourCastNet): the prediction is
	// input[chans] + model output. nil trains absolute-state
	// prediction over all channels.
	ResidualChans []int
}

// DefaultConfig returns settings that train the tiny test models
// stably.
func DefaultConfig() Config {
	return Config{
		LR: 3e-3, MinLR: 3e-5, WeightDecay: 1e-5, ClipNorm: 1.0,
		WarmupSteps: 20, TotalSteps: 400, BatchSize: 4, Seed: 1,
	}
}

// LossPoint records the training loss after a number of samples.
type LossPoint struct {
	Samples int
	Loss    float64
}

// Trainer drives gradient steps on a ViT model. The per-sample loss
// gradient and residual target live in two trainer-owned buffers
// (tensor.Ensure), reused across samples and steps.
type Trainer struct {
	Model  *vit.Model
	Opt    *optim.AdamW
	Sched  optim.Schedule
	Cfg    Config
	Scaler *bf16.GradScaler

	grad, residual *tensor.Tensor
	batch          []climate.Sample // reused per-step batch staging
	step           int
	samples        int
	// order/dataIdx are the persistent shuffled data stream Run walks;
	// they live on the trainer (not in Run) so CaptureState can record
	// the position and a restored trainer continues mid-stream.
	order   []int
	dataIdx int
}

// nextBatch fills the trainer-owned batch slice from the shuffled
// order, reusing its storage across steps.
func (t *Trainer) nextBatch(data DataSource, order []int, idx *int) []climate.Sample {
	t.batch = t.batch[:0]
	for len(t.batch) < t.Cfg.BatchSize {
		t.batch = append(t.batch, data.At(order[*idx%len(order)]))
		*idx++
	}
	return t.batch
}

// NewTrainer wires a model to its optimizer and schedule.
func NewTrainer(m *vit.Model, cfg Config) *Trainer {
	t := &Trainer{
		Model: m,
		Opt:   optim.NewAdamW(m.Params(), cfg.WeightDecay),
		Sched: optim.CosineSchedule{
			BaseLR: cfg.LR, MinLR: cfg.MinLR,
			WarmupSteps: cfg.WarmupSteps, TotalSteps: cfg.TotalSteps,
		},
		Cfg: cfg,
	}
	if cfg.MixedPrecision {
		t.Scaler = bf16.NewGradScaler()
	}
	return t
}

// Samples returns the cumulative number of samples processed.
func (t *Trainer) Samples() int { return t.samples }

// Step runs one optimizer step over a batch, returning the mean
// latitude-weighted MSE loss.
func (t *Trainer) Step(batch []climate.Sample) float64 {
	if len(batch) == 0 {
		panic("train: empty batch")
	}
	t.Model.ZeroGrads()
	var total float64
	scale := float32(1) / float32(len(batch))
	lossScale := float32(1)
	if t.Scaler != nil {
		lossScale = float32(t.Scaler.Scale)
	}
	for _, s := range batch {
		target := s.Target
		if t.Cfg.ResidualChans != nil {
			t.residual = tensor.Ensure(t.residual, target.Shape()...)
			target = tensor.SubInto(t.residual, target, climate.SelectChannels(s.Input, t.Cfg.ResidualChans))
		}
		pred := t.Model.Forward(s.Input, s.LeadHours)
		t.grad = tensor.Ensure(t.grad, pred.Shape()...)
		loss, _ := metrics.WeightedMSEInto(t.grad, pred, target)
		total += loss
		t.grad.ScaleInPlace(scale * lossScale)
		if t.Scaler != nil {
			// Gradients flow through bf16 as they would on hardware.
			bf16.RoundTensorInPlace(t.grad)
		}
		t.Model.Backward(t.grad)
	}
	params := t.Model.Params()
	if t.Scaler != nil {
		finite := t.Scaler.Unscale(nn.CollectGrads(params))
		if !t.Scaler.Update(finite) {
			// Overflow: skip the step; the scale has been reduced.
			t.step++
			t.samples += len(batch)
			return total / float64(len(batch))
		}
	}
	if t.Cfg.ClipNorm > 0 {
		optim.ClipGradNorm(params, t.Cfg.ClipNorm)
	}
	t.Opt.Step(t.Sched.LR(t.step))
	t.step++
	t.samples += len(batch)
	return total / float64(len(batch))
}

// Run trains for `steps` optimizer steps over the source, walking a
// deterministic shuffled order, and returns the loss curve. The data
// stream is persistent: a second Run (or a Run on a checkpoint-
// restored trainer) continues where the previous one stopped instead
// of reshuffling, which is what makes resumed runs bit-identical.
func (t *Trainer) Run(data DataSource, steps int) []LossPoint {
	if t.order == nil {
		rng := tensor.NewRNG(t.Cfg.Seed)
		t.order = rng.Perm(data.Len())
	}
	var curve []LossPoint
	for s := 0; s < steps; s++ {
		loss := t.Step(t.nextBatch(data, t.order, &t.dataIdx))
		curve = append(curve, LossPoint{Samples: t.samples, Loss: loss})
	}
	return curve
}

// CaptureState snapshots the trainer's full training state — weights,
// AdamW moments, step counters, data-stream position, and loss-scaler
// state — for ckpt.SaveTrainState. The snapshot copies the optimizer
// moments, so it stays valid while training continues.
func (t *Trainer) CaptureState() *ckpt.TrainState {
	st := &ckpt.TrainState{Model: t.Model}
	m, v := t.Opt.Moments()
	for i := range m {
		st.OptM = append(st.OptM, append([]float32(nil), m[i].Data()...))
		st.OptV = append(st.OptV, append([]float32(nil), v[i].Data()...))
	}
	st.Meta = ckpt.TrainMeta{
		Step:      t.step,
		Samples:   t.samples,
		OptStep:   t.Opt.StepCount(),
		DataIndex: t.dataIdx,
	}
	if t.Scaler != nil {
		s := t.Scaler.State()
		st.Meta.Scaler = &s
	}
	return st
}

// RestoreTrainer rebuilds a trainer from a checkpointed training
// state. Continuing it over the same data source reproduces the
// uninterrupted run's loss trajectory bit-identically (the shuffled
// order is a pure function of cfg.Seed and the data length).
func RestoreTrainer(st *ckpt.TrainState, cfg Config) (*Trainer, error) {
	t := NewTrainer(st.Model, cfg)
	m, v := t.Opt.Moments()
	if len(st.OptM) != len(m) || len(st.OptV) != len(v) {
		return nil, fmt.Errorf("train: checkpoint has %d/%d moment slices for %d params",
			len(st.OptM), len(st.OptV), len(m))
	}
	for i := range m {
		if len(st.OptM[i]) != m[i].Len() || len(st.OptV[i]) != v[i].Len() {
			return nil, fmt.Errorf("train: moment %d length mismatch", i)
		}
		copy(m[i].Data(), st.OptM[i])
		copy(v[i].Data(), st.OptV[i])
	}
	t.Opt.SetStepCount(st.Meta.OptStep)
	t.step = st.Meta.Step
	t.samples = st.Meta.Samples
	t.dataIdx = st.Meta.DataIndex
	// A precision-mode mismatch cannot be papered over: silently
	// dropping (or freshly initializing) the loss scaler would diverge
	// the trajectory the checkpoint promises to continue.
	switch {
	case t.Scaler != nil && st.Meta.Scaler == nil:
		return nil, fmt.Errorf("train: cfg asks for mixed precision but the checkpoint has no scaler state")
	case t.Scaler == nil && st.Meta.Scaler != nil:
		return nil, fmt.Errorf("train: checkpoint is from a mixed-precision run; set MixedPrecision in the resume config")
	case t.Scaler != nil:
		t.Scaler.Restore(*st.Meta.Scaler)
	}
	return t, nil
}

// Pretrain builds a model and trains it on the multi-source corpus,
// returning the model and its loss curve — the Fig. 8 workload.
func Pretrain(cfg vit.Config, tc Config, data DataSource, steps int) (*vit.Model, []LossPoint, error) {
	m, err := vit.New(cfg, tc.Seed)
	if err != nil {
		return nil, nil, err
	}
	tr := NewTrainer(m, tc)
	curve := tr.Run(data, steps)
	return m, curve, nil
}

// FinetuneModel adapts a pre-trained model to predict the output-
// variable subset: the transformer trunk is retained and a fresh
// prediction head for OutChannels is attached.
func FinetuneModel(pretrained *vit.Model, outChannels int, seed uint64) (*vit.Model, error) {
	cfg := pretrained.Config
	cfg.OutChannels = outChannels
	m, err := vit.New(cfg, seed)
	if err != nil {
		return nil, err
	}
	// Copy every parameter of the shared trunk (all but the head).
	src := pretrained.Params()
	dst := m.Params()
	headParams := len(m.Head.Params())
	if len(src)-len(pretrained.Head.Params()) != len(dst)-headParams {
		return nil, fmt.Errorf("train: trunk parameter mismatch")
	}
	for i := 0; i < len(dst)-headParams; i++ {
		dst[i].W.CopyFrom(src[i].W)
	}
	return m, nil
}

// Forecaster wraps a model with its prediction convention (absolute
// state or tendency relative to the input).
type Forecaster struct {
	Model *vit.Model
	// ResidualChans mirrors Config.ResidualChans.
	ResidualChans []int
}

// Forecaster returns the trainer's model wrapped with its convention.
func (t *Trainer) Forecaster() Forecaster {
	return Forecaster{Model: t.Model, ResidualChans: t.Cfg.ResidualChans}
}

// Predict produces the forecast fields for an input state.
func (f Forecaster) Predict(input *tensor.Tensor, leadHours float64) *tensor.Tensor {
	out := f.Model.Forward(input, leadHours)
	if f.ResidualChans != nil {
		tensor.AddInto(out, out, climate.SelectChannels(input, f.ResidualChans))
	}
	return out
}

// EvalACC evaluates mean wACC per output channel at the dataset's
// lead over nEval evenly spaced test samples. When the model (or the
// dataset) produces full-state fields, the chans subset is extracted,
// so models fine-tuned on a subset and full-state models evaluate
// uniformly.
func EvalACC(f Forecaster, ds *climate.Dataset, chans []int, nEval int) []float64 {
	sums := make([]float64, len(chans))
	stride := ds.Len() / nEval
	if stride < 1 {
		stride = 1
		nEval = ds.Len()
	}
	for i := 0; i < nEval; i++ {
		// Anomalies are scored against the day-of-year climatology
		// valid at the target time (WeatherBench convention).
		clim := ds.NormalizedClimatologyAt(i*stride, chans)
		s := ds.At(i * stride)
		pred := f.Predict(s.Input, s.LeadHours)
		if pred.Dim(0) != len(chans) {
			pred = climate.SelectChannels(pred, chans)
		}
		target := s.Target
		if target.Dim(0) != len(chans) {
			target = climate.SelectChannels(target, chans)
		}
		accs := metrics.WeightedACC(pred, target, clim)
		for c, a := range accs {
			sums[c] += a
		}
	}
	for c := range sums {
		sums[c] /= float64(nEval)
	}
	return sums
}

// SamplesToTarget fine-tunes until the validation mean wACC first
// reaches `target` and returns the number of samples consumed, or the
// total consumed if maxSteps is exhausted first. This is the Fig. 10
// data-efficiency measurement: with a common skill target, more
// capable (larger, better pre-trained) models need fewer samples.
func SamplesToTarget(t *Trainer, data DataSource, val *climate.Dataset, chans []int, target float64, checkEvery, maxSteps int) int {
	rng := tensor.NewRNG(t.Cfg.Seed + 99)
	order := rng.Perm(data.Len())
	idx := 0
	for s := 0; s < maxSteps; s++ {
		t.Step(t.nextBatch(data, order, &idx))
		if (s+1)%checkEvery == 0 {
			if metrics.MeanACC(EvalACC(t.Forecaster(), val, chans, 4)) >= target {
				return t.Samples()
			}
		}
	}
	return t.Samples()
}
