// Package orbit is the public API of the ORBIT reproduction: the Oak
// Ridge Base Foundation Model for Earth System Predictability
// (SC 2024) implemented in pure Go.
//
// The package exposes the three layers a user works with:
//
//   - Modeling: build and train ClimaX/ORBIT vision transformers on
//     synthetic CMIP6/ERA5-like climate data (NewModel, Pretrain,
//     NewTrainer, EvalACC, checkpointing via SaveModel/LoadModel).
//
//   - Parallelism: the paper's Hybrid-STOP algorithm runs as a real
//     SPMD program over a simulated Frontier-like cluster
//     (NewCluster, HybridSTOPEngine, the internal/core engine); its FSDP
//     and DDP baselines are the TP=1 and TP=FSDP=1 layouts of the
//     same engine.
//
//   - Scaling analysis: the calibrated analytical model that
//     regenerates the paper's Frontier-scale tables and figures
//     (MaxModelSize and the experiment runners re-exported
//     from internal/experiments).
//
// # Performance architecture
//
// The compute substrate (internal/tensor) is built for steady-state
// zero-allocation training steps, because on the CPU the seed
// implementation spent more time in the garbage collector than in
// floating point:
//
//   - Every kernel is destination-passing (MatMulInto,
//     MatMulTransAInto, MatMulTransBInto, SoftmaxInto, AddInto, …),
//     writing into caller-owned buffers.
//   - Every matrix product runs on one 6×16 outer-product kernel that
//     reads both operands in place; only a t@uᵀ right operand is
//     transposed once into a pooled buffer. On amd64 with AVX2+FMA it
//     runs in assembly at eight lanes per instruction, twelve
//     accumulators per block (runtime feature detection; the portable
//     loop is the reference the property tests compare against).
//   - Every kernel runs on its calling goroutine. Parallelism lives in
//     the goroutines above the kernels: SPMD ranks, inference engine
//     workers and serving replicas.
//   - Modules (Linear, LayerNorm, MLP, attention) own their output
//     and scratch buffers and reuse them across steps: a returned
//     tensor is valid until the module's next call. Multi-head
//     attention computes all heads in one batched head-major pass
//     with no per-head Split/Concat copies, and caches the maximum
//     attention logit during Forward. Every buffer is grown in place
//     by tensor.Ensure; there is no free-list pool.
//   - The FFT caches twiddle-factor and bit-reversal tables per size
//     and transforms 2-D grids in column panels, feeding the AFNO
//     spectral layer's reused grid buffers.
//
// The transformer step must stay at 0 allocs/op (enforced by nn's
// AllocsPerRun tests); `bash bench/run.sh` is the benchmark.
//
// See the examples/ directory for runnable programs and EXPERIMENTS.md
// for the paper-versus-measured record of every table and figure.
package orbit

import (
	"orbit/internal/ckpt"
	"orbit/internal/climate"
	"orbit/internal/cluster"
	"orbit/internal/core"
	"orbit/internal/experiments"
	"orbit/internal/guard"
	"orbit/internal/infer"
	"orbit/internal/perf"
	"orbit/internal/plan"
	"orbit/internal/pp"
	"orbit/internal/quant"
	"orbit/internal/serve"
	"orbit/internal/train"
	"orbit/internal/vit"
)

// ModelConfig describes an ORBIT model variant (see vit.Config).
type ModelConfig = vit.Config

// Model is an assembled ORBIT vision transformer.
type Model = vit.Model

// Paper model configurations (Sec. IV of the paper).
var (
	ORBIT115M = vit.ORBIT115M
	ORBIT1B   = vit.ORBIT1B
	ORBIT10B  = vit.ORBIT10B
	ORBIT113B = vit.ORBIT113B
)

// TinyConfig returns a laptop-scale configuration preserving the full
// architecture, for real-numerics training.
func TinyConfig(channels, height, width int) ModelConfig {
	return vit.Tiny(channels, height, width)
}

// NewModel builds a model with deterministic initialization.
func NewModel(cfg ModelConfig, seed uint64) (*Model, error) { return vit.New(cfg, seed) }

// ParamCount computes a configuration's parameter count analytically
// (usable for the 113 B config without allocating it).
func ParamCount(cfg ModelConfig) int64 { return vit.ParamCount(cfg) }

// SaveModel writes a checkpoint (bfloat16 when half is true).
func SaveModel(path string, m *Model, half bool) error { return ckpt.Save(path, m, half) }

// LoadModel reads a checkpoint.
func LoadModel(path string) (*Model, error) { return ckpt.Load(path) }

// --- checkpoint/resume and fault tolerance ---

// TrainState is a full training-state checkpoint: weights, AdamW
// moments, step counters, data-stream position, and loss-scaler state.
type TrainState = ckpt.TrainState

// SaveTrainerState checkpoints a trainer's full training state so a
// later RestoreTrainer continues the loss trajectory bit-identically.
func SaveTrainerState(path string, t *Trainer, half bool) error {
	return ckpt.SaveTrainState(path, t.CaptureState(), half)
}

// RestoreTrainer rebuilds a trainer from a loaded training state.
func RestoreTrainer(st *TrainState, cfg TrainConfig) (*Trainer, error) {
	return train.RestoreTrainer(st, cfg)
}

// ElasticConfig configures an elastic fault-tolerant distributed run
// with sharded checkpointing over the simulated cluster.
type ElasticConfig = train.ElasticConfig

// ElasticResult reports the losses, fault events, and final layout of
// an elastic run.
type ElasticResult = train.ElasticResult

// FaultInjector schedules simulated device/node failures.
type FaultInjector = cluster.FaultInjector

// NewFaultInjector builds an empty fault plan.
func NewFaultInjector() *FaultInjector { return cluster.NewFaultInjector() }

// RunElastic executes an elastic training run: on a node failure it
// rebuilds the machine without the dead node, reloads the newest
// sharded checkpoint (resharding if the layout shrank), and continues.
func RunElastic(cfg ElasticConfig, inj *FaultInjector) (*ElasticResult, error) {
	return train.RunElastic(cfg, inj)
}

// SaveTrainerStateRetained checkpoints a trainer's training state as a
// retained generation ring: the newest `keep` generations survive
// alongside the committed base checkpoint, so a corrupted newest file
// still leaves an older valid one to fall back to.
func SaveTrainerStateRetained(path string, t *Trainer, half bool, keep int) error {
	return ckpt.SaveTrainStateRetained(path, t.CaptureState(), half, keep)
}

// LoadLatestTrainerState loads the newest retained training-state
// generation at base path `path` that passes integrity verification,
// quarantining (renaming aside) any corrupt newer generations it had
// to skip. It returns the state, the file it actually loaded, and the
// quarantined paths. A plain single-file checkpoint (no generations)
// loads as the base generation.
func LoadLatestTrainerState(path string) (*TrainState, string, []string, error) {
	return ckpt.LoadLatestValidState(path)
}

// --- training-run supervision ---

// GuardConfig configures a supervised training run: the wrapped
// elastic job, its fault plan, the hang/straggler watchdog's step
// deadline and the divergence-rollback budget.
type GuardConfig = guard.Config

// GuardResult reports a supervised run: merged losses across rollback
// attempts, supervisor events, and the per-attempt elastic results.
type GuardResult = guard.Result

// RunGuarded executes a training run under the full supervisor:
// checkpoint-integrity fallback, numerical-health rollback, and the
// hang/straggler watchdog.
func RunGuarded(cfg GuardConfig) (*GuardResult, error) { return guard.Run(cfg) }

// --- data ---

// Variable describes one input channel; Registry91 is the paper's
// full variable set.
type Variable = climate.Variable

// Registry91 returns the 91-variable ORBIT set (3 static, 3 surface,
// 85 atmospheric on 17 pressure levels).
func Registry91() []Variable { return climate.Registry91() }

// Registry48 returns the ClimaX-style 48-variable set.
func Registry48() []Variable { return climate.Registry48() }

// RegistrySmall returns the reduced 8-variable set used by examples
// and tests.
func RegistrySmall() []Variable { return climate.RegistrySmall() }

// NewPretrainCorpus builds the ten-source CMIP6-like pre-training
// collection on the given grid.
func NewPretrainCorpus(vars []Variable, height, width, stepsPerSource, leadSteps int) *climate.PretrainCorpus {
	return climate.NewPretrainCorpus(vars, height, width, climate.CMIP6Sources(), stepsPerSource, leadSteps)
}

// NewERA5Dataset builds a reanalysis-like dataset for fine-tuning and
// evaluation.
func NewERA5Dataset(vars []Variable, height, width, startStep, steps, leadSteps int) *climate.Dataset {
	w := climate.NewWorld(vars, height, width, climate.ERA5Source())
	stats := w.EstimateStats(16)
	return climate.NewDataset(w, stats, startStep, steps, leadSteps)
}

// --- training ---

// TrainConfig holds training hyperparameters.
type TrainConfig = train.Config

// Trainer drives gradient steps on a model.
type Trainer = train.Trainer

// Forecaster wraps a trained model with its prediction convention.
type Forecaster = train.Forecaster

// DefaultTrainConfig returns stable settings for the tiny models.
func DefaultTrainConfig() TrainConfig { return train.DefaultConfig() }

// NewTrainer wires a model to AdamW with cosine warmup.
func NewTrainer(m *Model, cfg TrainConfig) *Trainer { return train.NewTrainer(m, cfg) }

// Pretrain builds and pre-trains a model, returning the loss curve.
func Pretrain(cfg ModelConfig, tc TrainConfig, data train.DataSource, steps int) (*Model, []train.LossPoint, error) {
	return train.Pretrain(cfg, tc, data, steps)
}

// FinetuneModel transfers a pre-trained trunk to a new output head.
func FinetuneModel(pretrained *Model, outChannels int, seed uint64) (*Model, error) {
	return train.FinetuneModel(pretrained, outChannels, seed)
}

// EvalACC scores latitude-weighted anomaly correlation on held-out
// data.
func EvalACC(f Forecaster, ds *climate.Dataset, chans []int, nEval int) []float64 {
	return train.EvalACC(f, ds, chans, nEval)
}

// --- inference and serving ---

// InferConfig configures the forward-only inference engine: the
// residual/output channel wiring, fused batch width, worker count, and
// optional tensor-parallel trunk sharding.
type InferConfig = infer.Config

// InferenceEngine executes batched autoregressive rollouts (initial
// condition → N lead steps) with zero-allocation planned forward
// passes that are bit-identical per sample to Model.Forward.
type InferenceEngine = infer.Engine

// ScoreCache caches the normalized truth and climatology tensors
// rollout scoring needs, per model.
type ScoreCache = infer.ScoreCache

// NewInferenceEngine plans an inference engine over a model.
func NewInferenceEngine(m *Model, cfg InferConfig) (*InferenceEngine, error) {
	return infer.NewEngine(m, cfg)
}

// LoadInferenceModel loads any checkpoint file kind (v1 weights-only,
// v2 weights-only or training-state) for inference.
func LoadInferenceModel(path string) (*Model, error) { return infer.LoadModel(path) }

// QuantKind selects a block-quantized weight format: int8 or Q4_0,
// one float32 scale per 32 weights.
type QuantKind = quant.Kind

// QuantizedWeight is one matmul weight in block-quantized form; the
// inference engine reads it through dequant-fused kernels.
type QuantizedWeight = quant.Quantized

// ParseQuantKind maps CLI spellings ("int8", "i8", "q4", "q4_0") to a
// QuantKind.
func ParseQuantKind(s string) (QuantKind, error) { return quant.ParseKind(s) }

// ErrNotQuantized reports that LoadQuantizedModel was given a
// structurally valid checkpoint of a non-quantized kind.
var ErrNotQuantized = ckpt.ErrNotQuantized

// LoadQuantizedModel reads a quantized checkpoint, returning the
// dequantized model and the quantized containers (pass them as
// InferConfig.Quant to serve through the dequant-fused kernels).
// Non-quantized checkpoints return ErrNotQuantized.
func LoadQuantizedModel(path string) (*Model, map[string]*QuantizedWeight, error) {
	return infer.LoadModelQuantized(path)
}

// QuantizeModel block-quantizes a model's matmul weights in place (the
// weights become their dequantized reconstruction, exactly as a
// quantized-checkpoint round trip would leave them) and returns the
// containers for quantized serving.
func QuantizeModel(m *Model, kind QuantKind) (map[string]*QuantizedWeight, error) {
	return ckpt.QuantizeModel(m, kind)
}

// NewScoreCache builds a per-model scoring cache over a dataset; nil
// chans scores every channel.
func NewScoreCache(ds *climate.Dataset, chans []int) *ScoreCache {
	return infer.NewScoreCache(ds, chans)
}

// RolloutRequestError is the typed validation error the forecast
// server returns for a bad start index or horizon; match it with
// errors.As.
type RolloutRequestError = infer.RequestError

// --- resilient serving (admission control, deadlines, failover) ---

// ServeConfig tunes the resilient serving front end: the batch width,
// the bounded admission queue, the request horizon cap, priority
// shedding and degraded mode. Failover needs no knob: a dead replica's
// calls go back to the queue, and the pool size bounds their retries.
type ServeConfig = serve.Config

// ServeRequest is the resilient serving unit; its response is
// annotated with the replica, retry count, and degraded flag the
// resilience machinery produced.
type ServeRequest = serve.Request

// RequestPriority orders requests under overload: low sheds first,
// high is never served degraded.
type RequestPriority = serve.Priority

// ParseRequestPriority maps a wire name ("", "low", "normal", "high")
// to a RequestPriority.
func ParseRequestPriority(s string) (RequestPriority, error) { return serve.ParsePriority(s) }

// ServeReplica is one health-checked inference engine in the serving
// pool.
type ServeReplica = serve.Replica

// ServeStats is the /v1/stats snapshot: queue depth, sheds, retries,
// degraded serves, and latency quantiles.
type ServeStats = serve.Stats

// ForecastServer is the overload-safe, fault-tolerant serving front
// end: bounded admission queue, batches formed as replica workers free
// up, and a replica pool with bit-identical batch failover.
type ForecastServer = serve.Server

// Serving error classes for HTTP mapping (429 / 503).
var (
	ErrServerOverloaded = serve.ErrOverloaded
	ErrServerClosed     = serve.ErrClosed
	ErrNoHealthyReplica = serve.ErrNoHealthyReplica
)

// NewServeReplica wires a pool replica over an engine and its score
// cache.
func NewServeReplica(id int, eng *InferenceEngine, sc *ScoreCache) *ServeReplica {
	return serve.NewReplica(id, eng, sc)
}

// NewForecastServer wires the resilience layer over a replica pool.
func NewForecastServer(cfg ServeConfig, replicas []*ServeReplica) (*ForecastServer, error) {
	return serve.NewServer(cfg, replicas)
}

// --- parallelism over the simulated cluster ---

// Layout is the Hybrid-STOP rank grid (TP × FSDP × DDP).
type Layout = core.Layout

// Options are the paper's Sec. III-B training optimizations.
type Options = core.Options

// HybridSTOPEngine is one rank's Hybrid-STOP instance. A step is
// ZeroGrad, then one Forward/Backward per micro-batch: each Backward
// adds its gradient into Chunks()[b].Grad, which the optimizer then
// reads as the step's sum.
type HybridSTOPEngine = core.Engine

// DefaultOptions enables all optimizations (Table I's last column).
func DefaultOptions() Options { return core.DefaultOptions() }

// NewCluster builds a simulated Frontier machine with the given node
// count (8 GPUs per node, 64 GB each).
func NewCluster(nodes int) *cluster.Machine {
	return cluster.NewMachine(cluster.Frontier(), nodes, 0)
}

// BuildGroups constructs the per-rank communicator grid for a layout.
func BuildGroups(l Layout, m *cluster.Machine) ([]*core.Groups, error) {
	return core.BuildGroups(l, m)
}

// --- pipeline parallelism (the 4th axis) ---

// Layout4 is the full 4D rank grid: TP × PP × FSDP × DDP. PP=1
// degenerates to the classic Hybrid-STOP Layout.
type Layout4 = pp.Layout

// ParseLayout parses "TPxFSDPxDDP" (PP=1 implied) or
// "TPxPPxFSDPxDDP" into a 4D layout.
func ParseLayout(spec string) (Layout4, error) { return pp.ParseLayout(spec) }

// --- parallelism auto-planner ---

// PlanWorkload describes a training job for the auto-planner: the
// transformer stack, the fixed global batch, and the base execution
// options.
type PlanWorkload = plan.Workload

// ClusterShape is the simulated machine a plan targets.
type ClusterShape = plan.ClusterShape

// PlanConstraints restricts the planner's search (pinned TP or PP,
// capped rank count, knob grids).
type PlanConstraints = plan.Constraints

// PlanKnobs are the tuning parameters enumerated alongside each
// layout (prefetch depth, DDP bucket size, implied micro-batches).
type PlanKnobs = plan.Knobs

// PlanCandidate is one (layout, knobs) point of the planning space;
// an unpipelined layout is the PP=1 row.
type PlanCandidate = plan.Candidate4

// ParallelPlan is one priced candidate: layout, tuning knobs, and the
// machine-readable step-time/memory prediction (see Explain), which
// includes the un-hidden pipeline-bubble wait (PPWait).
type ParallelPlan = plan.Plan4

// PlanMeasured is one grid point of a brute-force simulated sweep.
type PlanMeasured = plan.Measured4

// ScaledPlanShape is a Frontier-spec cluster shape of n nodes with
// device compute throughput scaled down, restoring a production compute-to-communication ratio for the
// toy-sized functional workloads (see plan.ScaledShape).
func ScaledPlanShape(nodes int, computeScale float64) ClusterShape {
	return plan.ScaledShape(nodes, computeScale)
}

// BestPlan returns the auto-planner's top-ranked feasible plan for
// the workload on the cluster. The search covers all four axes;
// PlanConstraints.FixPP = 1 restricts it to unpipelined layouts. A
// PP>1 layout wins only when the replayed 1F1B schedule (bubbles
// included) actually beats every PP=1 candidate, or when only
// pipelining fits the device memory.
func BestPlan(w PlanWorkload, c ClusterShape, cons PlanConstraints) (ParallelPlan, error) {
	return plan.Best4(w, c, cons)
}

// PredictPlan prices one candidate with the planner's
// instruction-level replay of its schedule on the comm clock model,
// without running the functional engines.
func PredictPlan(w PlanWorkload, c ClusterShape, cand PlanCandidate) plan.Prediction {
	return plan.Predict4(w, c, cand)
}

// SimulatePlan measures a candidate by running `steps` real engine
// steps (steps ≥ 1, after one warm-up) over the simulated cluster — the
// ground truth the planner's predictions are calibrated against.
func SimulatePlan(w PlanWorkload, c ClusterShape, cand PlanCandidate, steps int) PlanMeasured {
	return plan.Simulate4(w, c, cand, steps)
}

// PlanGrid returns the classic power-of-two (TP, FSDP, DDP) sweep
// grid, as PP=1 candidates, for a brute-force comparison
// (`orbit-scaling -auto`).
func PlanGrid(w PlanWorkload, c ClusterShape, knobs PlanKnobs) []PlanCandidate {
	return plan.GridCandidates(w, c, knobs)
}

// --- scaling analysis ---

// Strategy selects FSDP, tensor parallelism, or Hybrid-STOP for the
// analytical scaling model.
type Strategy = perf.Strategy

// The Fig. 5 strategies.
const (
	FSDPOnly   = perf.FSDPOnly
	TPOnly     = perf.TPOnly
	HybridSTOP = perf.HybridSTOP
)

// MaxModelSize returns the largest trainable model (parameters) for a
// strategy on n Frontier GPUs.
func MaxModelSize(strat Strategy, n int) int64 {
	return perf.MaxModelSize(strat, n, 48, 2, cluster.Frontier(), core.DefaultOptions())
}

// TimePerSample predicts the walltime per observation for a model
// configuration on n GPUs with the production plan.
func TimePerSample(cfg ModelConfig, n int) float64 {
	shape := perf.FromConfig(cfg)
	spec := cluster.Frontier()
	plan := perf.DefaultPlanFor(shape, n, spec, core.DefaultOptions())
	return perf.Step(shape, plan, spec, 0).TimePerSample()
}

// --- experiment runners (every paper table and figure) ---

// Experiment runners and formatters, re-exported for the CLIs and
// benchmarks.
var (
	Fig5         = experiments.Fig5
	FormatFig5   = experiments.FormatFig5
	TableI       = experiments.TableI
	FormatTableI = experiments.FormatTableI
	Fig6         = experiments.Fig6
	FormatFig6   = experiments.FormatFig6
	Fig7         = experiments.Fig7
	FormatFig7   = experiments.FormatFig7
	Fig8         = experiments.Fig8
	FormatFig8   = experiments.FormatFig8
	Fig9         = experiments.Fig9
	FormatFig9   = experiments.FormatFig9
	Fig10        = experiments.Fig10
	FormatFig10  = experiments.FormatFig10
)

// QuickScale finishes in seconds; FullScale in minutes. ParseScale
// maps a -scale flag value, "quick" or "full", to one of them.
var (
	QuickScale = experiments.QuickScale
	FullScale  = experiments.FullScale
	ParseScale = experiments.ParseScale
)
