package train

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"orbit/internal/ckpt"
	"orbit/internal/cluster"
	"orbit/internal/comm"
	"orbit/internal/core"
	"orbit/internal/nn"
	"orbit/internal/optim"
	"orbit/internal/plan"
	"orbit/internal/pp"
	"orbit/internal/tensor"
)

// Elastic fault-tolerant training over the simulated cluster.
//
// RunElastic drives Hybrid-STOP engines (which subsume DDP and FSDP as
// degenerate layouts) through a training loop that survives device and
// node failures: at every step boundary the job health-checks the
// machine; on a failure it tears the job down, rebuilds the machine
// without the dead node, keeps the parallelism layout while it fits
// the surviving devices (else re-plans it), reloads the newest sharded
// checkpoint (resharding it when the layout changed), and continues.
//
// Two determinism invariants make resumption testable:
//
//   - Same layout: the post-resume loss trajectory is bit-identical to
//     an uninterrupted run, because checkpoints capture every stateful
//     quantity — chunk weights, AdamW moments and step count, the
//     schedule step, and the data-stream RNG.
//   - Changed layout: the global batch is fixed in the config and
//     micro-batched over however many data ranks the layout provides,
//     and each sample is a pure function of (step seed, global sample
//     index). Losses then match an uninterrupted run up to float32
//     reduction-grouping error (≪ 1e-6 per step).
type ElasticConfig struct {
	// Layout is the initial TP×FSDP×DDP grid. A rebuild keeps it (and
	// PP) while it fits the surviving devices; otherwise it adopts the
	// planner's layout for the survivors, with TP pinned (TP shards
	// partition individual weight matrices, so changing TP would need a
	// different checkpoint transform).
	Layout core.Layout
	// PP is the pipeline-parallel stage count (0 or 1 = no
	// pipelining). With PP > 1 the job runs the full TP×PP×FSDP×DDP
	// composition: the transformer stack is cut into PP contiguous
	// stages (uniform cut — the elastic stack's blocks are equal-cost)
	// and micro-batches stream through the 1F1B schedule. Requires
	// Opts.LayerWrapping and Opts.ActivationCheckpoint. A replan after
	// a node loss may change PP, and checkpoints reshard across PP
	// changes bit-identically (ckpt.Reshard regroups whole blocks; no
	// chunk is re-split). An unpipelined job stays at PP=1.
	PP int
	// Nodes is the simulated machine size; 0 fits the layout exactly.
	Nodes int
	// GPUsPerNode overrides the spec's node width (0 = spec default).
	GPUsPerNode int
	// ComputeScale scales the simulated devices' throughput (0 or 1 =
	// full-speed Frontier). The functional workloads are toy-sized, so
	// scaling compute down restores a production
	// compute-to-communication ratio — which is what makes the
	// auto-planner's layout choices (and the simulated step times) on
	// this machine representative. Affects only the clock model, never
	// the numerics: loss trajectories are identical at every scale.
	ComputeScale float64

	// Transformer-stack shape (the functional workload).
	Dim, Heads, Layers, Tokens int

	// GlobalBatch is the layout-independent number of samples per step,
	// micro-batched over the data ranks (must stay divisible by
	// FSDP×DDP of every layout the job passes through).
	GlobalBatch int

	LR          float64
	MinLR       float64
	WarmupSteps int
	WeightDecay float64
	TotalSteps  int
	// ScheduleSteps is the cosine-decay horizon (0 = TotalSteps). Set
	// it explicitly when a process intentionally runs fewer steps than
	// the full job (e.g. an allocation time limit before a resume), so
	// the LR trajectory — and therefore the loss trajectory — is the
	// same function of the step index in every process of the job.
	ScheduleSteps int

	Seed     uint64 // model initialization
	DataSeed uint64 // data stream (0 = Seed+1)

	// CkptDir receives the sharded checkpoints; CkptEvery is the saving
	// cadence in steps (0 disables checkpointing — a fault then
	// restarts training from scratch).
	CkptDir   string
	CkptEvery int
	// Resume starts from CkptDir's checkpoint when one exists.
	Resume bool
	// Keep is how many checkpoint generations to retain in CkptDir
	// (0 or 1 = newest only). With Keep > 1 a corrupt newest
	// generation is quarantined on load and the run falls back to the
	// next retained one instead of dying.
	Keep int

	// StepSalt perturbs the data-stream seed of individual steps
	// (stepSeed ^= StepSalt[step]) without consuming extra RNG draws,
	// so the checkpointed stream stays aligned. The supervisor uses it
	// to advance a rolled-back run past a data-dependent bad window:
	// every later step still sees its original seed.
	StepSalt map[int]uint64

	// Hooks are the supervisor's observation points; nil runs
	// unsupervised with zero overhead.
	Hooks *Hooks

	Opts core.Options
}

// ElasticEvent records one fault-tolerance action for reporting.
type ElasticEvent struct {
	Step   int
	Kind   string // "fault", "rebuild", "resume", "checkpoint", "restart"
	Detail string
}

// ElasticResult is the outcome of an elastic run.
type ElasticResult struct {
	// Losses holds the per-step global-batch mean loss, indexed by
	// step. A run resumed from a checkpoint only fills the steps it
	// executed.
	Losses   []float64
	Events   []ElasticEvent
	Rebuilds int
	// FinalLayout is the TP×PP×FSDP×DDP grid the job ended on.
	FinalLayout pp.Layout
	// FinalNodes is the surviving machine size.
	FinalNodes int
}

// elasticJob is the mutable state of one RunElastic invocation.
type elasticJob struct {
	cfg     ElasticConfig
	inj     *cluster.FaultInjector
	res     *ElasticResult
	layout  pp.Layout // the current build's TP×PP×FSDP×DDP grid
	nodes   int
	gpn     int
	machine *cluster.Machine
	engines []*pp.Engine
	opts    []*optim.AdamW
	grads   [][][]float32    // [rank][block] the chunk gradients, as GradHook sees them
	samples []sampleSlot     // [global sample] the current step's inputs
	grad    []*tensor.Tensor // [rank] last-stage target / residual / loss gradient
	sched   optim.CosineSchedule
	dataRNG *tensor.RNG
	step    int // next step to run
}

// sampleSlot is one sample of the global batch, drawn once per step by
// whichever rank asks first: its TP peers, and the last stage that
// derives the target from it, read the same tensor. seed is the step
// seed x was drawn for (not the step number, so a rolled-back or salted
// step can never read a stale draw).
type sampleSlot struct {
	mu    sync.Mutex
	seed  uint64
	drawn bool
	x     *tensor.Tensor
}

// sample returns global sample g of the step whose seed is stepSeed.
// The tensor is shared and read-only; it holds until the next step.
func (j *elasticJob) sample(stepSeed uint64, g int) *tensor.Tensor {
	s := &j.samples[g]
	s.mu.Lock()
	if !s.drawn || s.seed != stepSeed {
		elasticSample(s.x, stepSeed, g)
		s.seed, s.drawn = stepSeed, true
	}
	s.mu.Unlock()
	return s.x
}

// workload is the stack and batch the planner prices for this run.
func (cfg ElasticConfig) workload() plan.Workload {
	return plan.Workload{
		Dim: cfg.Dim, Heads: cfg.Heads, Layers: cfg.Layers, Tokens: cfg.Tokens, QKNorm: true,
		GlobalBatch: cfg.GlobalBatch, Opts: cfg.Opts,
	}
}

// RunElastic executes an elastic fault-tolerant training run. inj may
// be nil for a fault-free run (still checkpointing, still resumable).
func RunElastic(cfg ElasticConfig, inj *cluster.FaultInjector) (*ElasticResult, error) {
	if cfg.TotalSteps <= 0 {
		return nil, fmt.Errorf("train: elastic config needs TotalSteps")
	}
	if err := cfg.workload().Validate(); err != nil {
		return nil, fmt.Errorf("train: elastic config: %w", err)
	}
	if cfg.DataSeed == 0 {
		cfg.DataSeed = cfg.Seed + 1
	}
	if cfg.ScheduleSteps == 0 {
		cfg.ScheduleSteps = cfg.TotalSteps
	}
	if cfg.PP < 1 {
		cfg.PP = 1
	}
	if cfg.PP > cfg.Layers {
		return nil, fmt.Errorf("train: PP=%d stages exceed %d layers", cfg.PP, cfg.Layers)
	}
	spec := cluster.Frontier()
	gpn := cfg.GPUsPerNode
	if gpn == 0 {
		gpn = spec.GPUsPerNode
	}
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = (cfg.Layout.Ranks()*cfg.PP + gpn - 1) / gpn
	}
	j := &elasticJob{
		cfg: cfg, inj: inj,
		layout: pp.Layout{TP: cfg.Layout.TP, PP: cfg.PP, FSDP: cfg.Layout.FSDP, DDP: cfg.Layout.DDP},
		nodes:  nodes, gpn: gpn,
		res: &ElasticResult{Losses: make([]float64, cfg.TotalSteps)},
		sched: optim.CosineSchedule{
			BaseLR: cfg.LR, MinLR: cfg.MinLR,
			WarmupSteps: cfg.WarmupSteps, TotalSteps: cfg.ScheduleSteps,
		},
		dataRNG: tensor.NewRNG(cfg.DataSeed),
	}
	if j.sched.BaseLR == 0 {
		j.sched.BaseLR = 1e-2
	}

	resume := cfg.Resume && cfg.CkptDir != "" && ckpt.HasManifest(cfg.CkptDir)
	for {
		if err := j.build(resume); err != nil {
			return j.res, err
		}
		if resume {
			j.event(j.step, "resume", fmt.Sprintf("layout %s on %d nodes", j.layoutStr(), j.nodes))
		}
		restart, err := j.trainUntilFaultOrDone()
		if err != nil {
			// Partial result: the supervisor reads the events and losses
			// accumulated up to the abort.
			return j.res, err
		}
		if !restart {
			break
		}
		resume = cfg.CkptDir != "" && ckpt.HasManifest(cfg.CkptDir)
		if !resume {
			// No checkpoint yet: all progress is lost, start over.
			j.step = 0
			j.dataRNG = tensor.NewRNG(cfg.DataSeed)
			j.event(0, "restart", "no checkpoint available, restarting from scratch")
		}
	}
	j.res.FinalLayout = j.layout
	j.res.FinalNodes = j.nodes
	return j.res, nil
}

// layoutStr renders the active layout for events: the classic 3D form
// when no pipelining is active (so pre-PP logs are unchanged), the 4D
// form otherwise.
func (j *elasticJob) layoutStr() string {
	if j.layout.PP > 1 {
		return fmt.Sprintf("TP=%d PP=%d FSDP=%d DDP=%d", j.layout.TP, j.layout.PP, j.layout.FSDP, j.layout.DDP)
	}
	return fmt.Sprintf("TP=%d FSDP=%d DDP=%d", j.layout.TP, j.layout.FSDP, j.layout.DDP)
}

// trainUntilFaultOrDone runs steps until completion (false) or a fault
// that demands a rebuild (true, with the job's layout/nodes updated).
func (j *elasticJob) trainUntilFaultOrDone() (restart bool, err error) {
	for j.step < j.cfg.TotalSteps {
		if j.inj != nil {
			j.inj.FireStep(j.machine, j.step)
		}
		if j.machine.FirstDead() >= 0 {
			if err := j.handleFault(); err != nil {
				return false, err
			}
			return true, nil
		}
		loss, err := j.runStep()
		if err != nil {
			if j.isMidStepFault(err) {
				// A device died (or a stalled rank was shot by the
				// watchdog) in the middle of the step: the surviving
				// ranks unwound via group poisoning, so the machine is
				// quiescent and the elastic rebuild path applies.
				j.event(j.step, "fault", fmt.Sprintf("mid-step failure: %v", err))
				if err := j.handleFault(); err != nil {
					return false, err
				}
				return true, nil
			}
			// Anything else (e.g. OOM on rebuild-sized devices, a
			// supervisor abort) is not recoverable by a rebuild.
			return false, err
		}
		j.res.Losses[j.step] = loss
		j.step++
		if j.cfg.CkptEvery > 0 && j.cfg.CkptDir != "" && j.step%j.cfg.CkptEvery == 0 {
			if err := j.save(); err != nil {
				return false, err
			}
			j.event(j.step, "checkpoint", fmt.Sprintf("saved %d shards", j.layout.PP*j.layout.TP*j.layout.FSDP))
		}
	}
	return false, nil
}

// isMidStepFault reports whether a step error is a device failure the
// elastic rebuild can recover from: either a rank saw its own device
// die, or every surviving rank only reported peer-abort collateral and
// the machine confirms a death.
func (j *elasticJob) isMidStepFault(err error) bool {
	var dde *cluster.DeadDeviceError
	if errors.As(err, &dde) {
		return true
	}
	return errors.Is(err, errPeerAborted) && j.machine.FirstDead() >= 0
}

// handleFault records the failure and picks the layout for the
// surviving nodes. Every node with a dead device is dropped — simultaneous
// multi-node failures (e.g. a shared power domain) must all be counted
// before the rebuild, or a lost node would silently come back healthy.
func (j *elasticJob) handleFault() error {
	deadNodes := make(map[int]bool)
	for _, d := range j.machine.Devices {
		if !d.Alive() {
			deadNodes[d.Node] = true
			j.event(j.step, "fault", fmt.Sprintf("device %d (node %d) dead", d.ID, d.Node))
		}
	}
	if j.inj != nil {
		j.inj.MarkTimeFaultsFired(j.machine)
	}
	j.nodes -= len(deadNodes)
	if j.nodes < 1 {
		return fmt.Errorf("train: no healthy nodes left after fault at step %d", j.step)
	}
	if err := j.chooseLayout(); err != nil {
		return err
	}
	j.res.Rebuilds++
	j.event(j.step, "rebuild", fmt.Sprintf("%d nodes, layout %s", j.nodes, j.layoutStr()))
	return nil
}

// chooseLayout picks the post-fault layout for the surviving machine.
// The current layout stays while it fits, so the resume is
// bit-identical. Otherwise the job adopts the planner's fastest plan
// for the survivors: TP pinned, since the sharded checkpoint cannot
// reshard across a TP change, and PP pinned to 1 for an unpipelined
// job. A pipelined job leaves PP free, so the new layout may trade
// stages for data ranks (ckpt.Reshard regroups blocks losslessly).
func (j *elasticJob) chooseLayout() error {
	if j.layout.Ranks() <= j.nodes*j.gpn {
		return nil
	}
	cons := plan.Constraints{FixTP: j.layout.TP}
	if j.layout.PP == 1 {
		cons.FixPP = 1
	}
	best, err := plan.Best4(j.cfg.workload(), plan.ClusterShape{Nodes: j.nodes, GPUsPerNode: j.gpn, Spec: j.spec()}, cons)
	if err != nil {
		return fmt.Errorf("train: no layout for %d surviving devices: %w", j.nodes*j.gpn, err)
	}
	j.cfg.Opts = best.Options(j.cfg.Opts)
	j.layout = best.Layout
	j.event(j.step, "plan", best.String())
	return nil
}

// spec returns the machine specification of this job: Frontier, with
// device throughput scaled by ComputeScale. The planner and the
// machine the engines run on always share this spec, so in-loop plan
// predictions are priced against the hardware the job actually sees.
func (j *elasticJob) spec() cluster.Spec {
	s := cluster.Frontier()
	if cs := j.cfg.ComputeScale; cs > 0 && cs != 1 {
		s.PeakFLOPS *= cs
	}
	return s
}

// refStack builds the common-seed reference blocks every rank shards.
func (j *elasticJob) refStack() []*nn.TransformerBlock {
	rng := tensor.NewRNG(j.cfg.Seed)
	blocks := make([]*nn.TransformerBlock, j.cfg.Layers)
	for i := range blocks {
		blocks[i] = nn.NewTransformerBlock(fmt.Sprintf("elastic%d", i), j.cfg.Dim, j.cfg.Heads, true, rng)
	}
	return blocks
}

// build constructs the machine, engines, and optimizers for the
// current layout, optionally loading the newest checkpoint.
func (j *elasticJob) build(resume bool) error {
	if j.cfg.GlobalBatch%(j.layout.FSDP*j.layout.DDP) != 0 {
		return fmt.Errorf("train: global batch %d not divisible by %d data ranks",
			j.cfg.GlobalBatch, j.layout.FSDP*j.layout.DDP)
	}
	j.machine = cluster.NewMachine(j.spec(), j.nodes, j.gpn)
	if j.inj != nil {
		j.inj.Arm(j.machine)
	}
	stages, err := pp.UniformPartition(j.cfg.Layers, j.layout.PP)
	if err != nil {
		return err
	}
	engines, err := pp.Build(j.layout, stages, j.machine, j.refStack(), j.cfg.Opts)
	if err != nil {
		return err
	}
	j.engines = engines
	ranks := len(engines)
	j.opts = make([]*optim.AdamW, ranks)
	j.grads = make([][][]float32, ranks)
	j.grad = make([]*tensor.Tensor, ranks)
	j.samples = make([]sampleSlot, j.cfg.GlobalBatch)
	for g := range j.samples {
		j.samples[g].x = tensor.New(j.cfg.Tokens, j.cfg.Dim)
	}
	for r, e := range engines {
		chunks := e.Stage.Chunks()
		j.opts[r] = optim.NewAdamW(chunks, j.cfg.WeightDecay)
		for _, c := range chunks {
			j.grads[r] = append(j.grads[r], c.Grad.Data())
		}
		if e.Coord.P == j.layout.PP-1 {
			j.grad[r] = tensor.New(j.cfg.Tokens, j.cfg.Dim)
		}
	}
	if h := j.cfg.Hooks; h != nil && h.OnBuild != nil {
		// Before load(): the supervisor must see the machine (and, in
		// tests, get a chance to corrupt a checkpoint) before the load
		// path runs.
		h.OnBuild(j.machine, j.layout)
	}
	if resume {
		return j.load()
	}
	return nil
}

// stageLens assembles the global checkpoint geometry of the current
// build: the per-T flat-length rows concatenated across stages in
// stage order, and each stage's [start, end) range over those global
// chunk indices. With LayerWrapping every transformer block is one
// flat chunk, so the chunk ranges coincide with the block ranges; the
// geometry is nonetheless read off the engines so it is correct for
// whatever chunking the options induce.
func (j *elasticJob) stageLens() (lensTP [][]int, stageBlocks [][2]int) {
	lensTP = make([][]int, j.layout.TP)
	stageBlocks = make([][2]int, j.layout.PP)
	for p := 0; p < j.layout.PP; p++ {
		for t := 0; t < j.layout.TP; t++ {
			rank := j.layout.RankOf(pp.Coord{T: t, P: p})
			lens := j.engines[rank].Stage.LogicalFlatLens()
			if t == 0 {
				stageBlocks[p] = [2]int{len(lensTP[0]), len(lensTP[0]) + len(lens)}
			}
			lensTP[t] = append(lensTP[t], lens...)
		}
	}
	return lensTP, stageBlocks
}

// save writes a sharded checkpoint: each (P,T,F) position of the D=0
// plane contributes exactly its own chunk weights and moments. A
// pipelined job records the stage geometry in the manifest; a PP=1
// manifest omits it, and a TP>1 one records every TP row's lengths.
func (j *elasticJob) save() error {
	lensTP, stageBlocks := j.stageLens()
	man := &ckpt.Manifest{
		Layout:      ckpt.ShardLayout{TP: j.layout.TP, FSDP: j.layout.FSDP, DDP: j.layout.DDP},
		FlatLens:    lensTP[0],
		Step:        j.step,
		OptStep:     j.opts[0].StepCount(),
		GlobalBatch: j.cfg.GlobalBatch,
		RNG:         j.dataRNG.State(),
	}
	if j.layout.PP > 1 {
		man.Layout.PP = j.layout.PP
		man.StageBlocks = stageBlocks
	}
	if j.layout.TP > 1 {
		// TP rows differ in flat length (output biases live on T=0
		// only), so record each row for exact resharding on load.
		man.FlatLensTP = lensTP
	}
	var shards []*ckpt.RankShard
	for r, e := range j.engines {
		c := e.Coord
		if c.D != 0 {
			continue // DDP replicas hold identical state
		}
		chunks := e.Stage.ExportChunks()
		m, v := j.opts[r].Moments()
		sh := &ckpt.RankShard{P: c.P, T: c.T, F: c.F}
		for b := range chunks {
			sh.Blocks = append(sh.Blocks, ckpt.BlockShard{
				W: chunks[b],
				M: append([]float32(nil), m[b].Data()...),
				V: append([]float32(nil), v[b].Data()...),
			})
		}
		shards = append(shards, sh)
	}
	keep := j.cfg.Keep
	if keep < 1 {
		keep = 1
	}
	return ckpt.SaveShardedKeep(j.cfg.CkptDir, man, shards, keep)
}

// load restores the newest *valid* checkpoint into the freshly built
// engines, resharding when the saved FSDP extent differs from the
// current one. A corrupt generation is quarantined and the next
// retained one used instead (see ckpt.LoadShardedLatestValid).
func (j *elasticJob) load() error {
	man, shards, quarantined, err := ckpt.LoadShardedLatestValid(j.cfg.CkptDir)
	for _, q := range quarantined {
		j.event(j.step, "quarantine", fmt.Sprintf("corrupt checkpoint generation quarantined: %s", q))
	}
	if err != nil {
		return err
	}
	if man.Layout.TP != j.layout.TP {
		return fmt.Errorf("train: checkpoint has TP=%d, layout has TP=%d (TP cannot reshard)",
			man.Layout.TP, j.layout.TP)
	}
	if man.GlobalBatch != j.cfg.GlobalBatch {
		return fmt.Errorf("train: checkpoint global batch %d, config %d", man.GlobalBatch, j.cfg.GlobalBatch)
	}
	lensTP, stageBlocks := j.stageLens()
	lens := lensTP[0]
	if len(man.FlatLens) != len(lens) {
		return fmt.Errorf("train: checkpoint has %d blocks, model has %d", len(man.FlatLens), len(lens))
	}
	for b, l := range lens {
		if man.FlatLens[b] != l {
			return fmt.Errorf("train: block %d flat length %d in checkpoint, %d in model", b, man.FlatLens[b], l)
		}
	}
	// Reshard regroups whole blocks from the checkpoint's stage
	// partition to the current one and re-chunks them across any FSDP
	// change, bit-identically.
	var newStages [][2]int
	if j.layout.PP > 1 {
		newStages = stageBlocks
	}
	reshards, err := ckpt.Reshard(man, shards, newStages, j.layout.FSDP)
	if err != nil {
		return err
	}
	for r, e := range j.engines {
		c := e.Coord
		sh := reshards[(c.P*j.layout.TP+c.T)*j.layout.FSDP+c.F]
		w := make([][]float32, len(sh.Blocks))
		for b := range sh.Blocks {
			w[b] = sh.Blocks[b].W
		}
		e.Stage.ImportChunks(w)
		m, v := j.opts[r].Moments()
		for b := range sh.Blocks {
			copy(m[b].Data(), sh.Blocks[b].M)
			copy(v[b].Data(), sh.Blocks[b].V)
		}
		j.opts[r].SetStepCount(man.OptStep)
	}
	j.dataRNG.SetState(man.RNG)
	j.step = man.Step
	return nil
}

// runStep executes one SPMD optimizer step over the global batch, in
// three phases:
//
//	A. every rank forward/backwards its micro-batches, the engines
//	   summing the step's gradient into the chunk gradients (no weight
//	   mutation);
//	B. host hooks run (GradHook, then the grad norm + OnStep verdict);
//	C. every rank applies the optimizer to its chunk gradients.
//
// Because weights only change in phase C, an OnStep abort leaves the
// model exactly at the last step boundary — clean for rollback.
func (j *elasticJob) runStep() (float64, error) {
	stepSeed := j.dataRNG.Uint64() // exactly one draw per step (checkpointed stream)
	if salt, ok := j.cfg.StepSalt[j.step]; ok {
		stepSeed ^= salt
	}
	dataRanks := j.layout.FSDP * j.layout.DDP
	micros := j.cfg.GlobalBatch / dataRanks
	lr := j.sched.LR(j.step)
	ranks := len(j.engines) // inner grid × pipeline stages
	losses := make([]float64, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(comm.Poisoned); ok {
						// A peer failed and poisoned a shared group;
						// propagate the abort to this rank's other
						// groups and unwind quietly.
						j.engines[rank].PoisonComm()
						errs[rank] = errPeerAborted
						return
					}
					panic(rec)
				}
			}()
			if err := j.rankAccumulate(rank, stepSeed, micros, &losses[rank]); err != nil {
				// This rank's own device failed mid-collective: peers
				// are (or will be) stranded in waits — wake them.
				j.engines[rank].PoisonComm()
				errs[rank] = err
			}
		}(r)
	}
	wg.Wait()
	if err := stepError(errs); err != nil {
		return 0, err
	}
	// Host-side loss averaging over the data ranks (deterministic
	// order; TP peers duplicate their sample's loss).
	var total float64
	for r, e := range j.engines {
		if e.Coord.T == 0 {
			total += losses[r]
		}
	}
	loss := total / float64(dataRanks)
	if h := j.cfg.Hooks; h != nil {
		if h.GradHook != nil {
			for r := range j.engines {
				h.GradHook(j.step, stepSeed, r, j.grads[r])
			}
		}
		if h.OnStep != nil {
			if err := h.OnStep(j.step, loss, j.gradNorm()); err != nil {
				return 0, fmt.Errorf("train: step %d vetoed by supervisor: %w", j.step, err)
			}
		}
	}
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			j.opts[rank].Step(lr)
		}(r)
	}
	wg.Wait()
	return loss, nil
}

// gradNorm is the global L2 norm of the step's accumulated gradient,
// summed over the D=0 plane, whose (P,T,F) chunks hold every logical
// parameter (DDP replicas are identical): core.Engine.GradSumSquares
// counts a TP-replicated one on T=0 only. It runs on the host, in rank
// order, and only when an OnStep hook wants it.
func (j *elasticJob) gradNorm() float64 {
	var sum float64
	for r := range j.engines {
		if e := j.engines[r]; e.Coord.D == 0 {
			sum += e.Stage.GradSumSquares()
		}
	}
	return math.Sqrt(sum)
}

// rankAccumulate is one rank's phase A: the rank's slots of the 1F1B
// schedule over `micros` micro-batches, the stage engine summing their
// gradients into its chunk gradients. Weights and optimizer state are
// untouched — phase C applies them. With PP=1 the schedule degenerates
// to the plain forward/backward alternation, and the per-rank float
// operation sequence is bit-identical to the pre-pipeline loop (pinned
// by the conformance suite in internal/pp).
func (j *elasticJob) rankAccumulate(rank int, stepSeed uint64, micros int, lossOut *float64) error {
	e := j.engines[rank]
	c := e.Coord
	dataRank := c.D*j.layout.FSDP + c.F
	beat := func(int, int) {}
	if h := j.cfg.Hooks; h != nil && h.OnBeat != nil {
		beat = h.OnBeat
	}
	invMicros := float32(1) / float32(micros)
	io := pp.StepIO{
		Shape: []int{j.cfg.Tokens, j.cfg.Dim},
		Input: func(mu int) *tensor.Tensor {
			beat(rank, j.step)
			return j.sample(stepSeed, dataRank*micros+mu)
		},
		LossGrad: func(mu int, y *tensor.Tensor) (float64, *tensor.Tensor) {
			// The sample is a pure function of (stepSeed, index), so no
			// target ever crosses a stage link: the last stage reads the
			// step's draw, or makes it.
			g := j.grad[rank]
			copy(g.Data(), j.sample(stepSeed, dataRank*micros+mu).Data())
			g.ScaleInPlace(0.5)     // the target
			tensor.SubInto(g, y, g) // the residual
			loss := tensor.Dot(g, g) / float64(y.Len())
			g.ScaleInPlace(2 / float32(y.Len()) * invMicros)
			return loss / float64(micros), g
		},
	}
	if c.P != 0 {
		// Non-first stages never run Input; their per-micro heartbeat
		// fires at each backward instead.
		io.OnMicroGrads = func(int) { beat(rank, j.step) }
	}
	loss, err := e.RunStep(micros, io)
	if err != nil {
		return err
	}
	*lossOut = loss
	return nil
}

// elasticSample fills x with the deterministic sample input for a
// global index at a step: a pure function of (stepSeed, g),
// independent of how many ranks the batch is spread over. Its target
// is 0.5·x, a contraction the residual blocks can learn, so losses
// visibly decrease.
func elasticSample(x *tensor.Tensor, stepSeed uint64, g int) {
	r := tensor.NewRNG(stepSeed ^ (uint64(g)+1)*0x9E3779B97F4A7C15)
	xd := x.Data()
	for i := range xd {
		xd[i] = float32(r.Norm())
	}
}

func (j *elasticJob) event(step int, kind, detail string) {
	j.res.Events = append(j.res.Events, ElasticEvent{Step: step, Kind: kind, Detail: detail})
}
