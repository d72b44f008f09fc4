package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"orbit/internal/ckpt"
	"orbit/internal/climate"
	"orbit/internal/infer"
	"orbit/internal/metrics"
	"orbit/internal/quant"
	"orbit/internal/serve"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

// The serving stack ("bench model"): vit.Tiny on the orbit-serve grid,
// widened to the training stack's width and depth, predicting four
// residual channels. The overload rate is a constant of the benchmark,
// sized once on a 2-core host (16 closed-loop clients with the same
// request mix saturate at ≈ 320 req/s) and never re-derived from the
// system under test.
const (
	srvHeight, srvWidth = 16, 32
	srvLead             = 4 // one day at 6-hourly steps
	srvMaxSteps         = 4
	srvMaxBatch         = 8
	srvMaxWait          = 2 * time.Millisecond
	srvQueueCap         = 16
	srvShedLowDepth     = 12 // serve_overload only
	srvLimit            = 100 * time.Millisecond
	overloadRPS         = 640.0 // ≈ 2× saturation
	sampleEvery         = 97    // every n-th scored reply is re-derived from the engine
)

var (
	srvChans = []int{4, 7, 1, 2} // z500, t850, t2m, u10, as orbit-serve wires them
	srvSteps = []int{1, 2, 4}
	srvPool  = 256 // distinct rollout starts requests draw from (a variable so the scaled-down test run can shrink it)
)

func fixturePath(dir string, int8 bool) string {
	if int8 {
		return filepath.Join(dir, "bench-int8.orbt")
	}
	return filepath.Join(dir, "bench-f32.orbt")
}

// writeFixtures saves the bench model as the two ORBT v3 checkpoints
// the workloads load: float32 and int8 block-quantized. The model is a
// fixed input (seed 1), not a function of the workload seed.
func writeFixtures(dir string) error {
	cfg := vit.Tiny(len(climate.RegistrySmall()), srvHeight, srvWidth)
	cfg.EmbedDim, cfg.Layers, cfg.OutChannels = trainDim, trainLayers, len(srvChans)
	m, err := vit.New(cfg, 1)
	if err != nil {
		return err
	}
	if err := ckpt.Save(fixturePath(dir, false), m, false); err != nil {
		return err
	}
	return ckpt.SaveQuantized(fixturePath(dir, true), m, quant.Int8)
}

// stack is a loaded, warmed serving stack, with the time its set-up
// spent in each layer.
type stack struct {
	model *vit.Model
	quant map[string]*tensor.Quantized
	world *climate.World
	eng   *infer.Engine
	sc    *infer.ScoreCache

	loadMs, coldUs float64
}

// buildStack is the serving set-up a user waits for: load the
// checkpoint, build the evaluation dataset, plan and warm the engine,
// and fill the score cache over the start pool (generating a truth
// field costs several forwards, so a cold cache would dominate the
// first requests).
func buildStack(dir string, int8 bool) (*stack, error) {
	st := &stack{}
	before, start := hostRef(), time.Now()
	var err error
	if int8 {
		st.model, st.quant, err = infer.LoadModelQuantized(fixturePath(dir, true))
	} else {
		st.model, err = infer.LoadModel(fixturePath(dir, false))
	}
	if err != nil {
		return nil, err
	}
	st.loadMs = ms(time.Since(start))

	st.world = climate.NewWorld(climate.RegistrySmall(), srvHeight, srvWidth, climate.ERA5Source())
	ds := climate.NewDataset(st.world, st.world.EstimateStats(8), 1200, srvPool, srvLead)
	ds.OutputChans = srvChans
	st.sc = infer.NewScoreCache(ds, srvChans)
	st.eng, err = infer.NewEngine(st.model, infer.Config{ResidualChans: srvChans, MaxBatch: srvMaxBatch, Quant: st.quant})
	if err != nil {
		return nil, err
	}
	st.eng.Warmup()

	cold := time.Now()
	for s := 0; s < srvPool; s++ {
		st.sc.InputAt(s)
		for k := 1; k <= srvMaxSteps; k++ {
			st.sc.TruthAt(s + k*srvLead)
			st.sc.ClimAt(s + k*srvLead)
		}
	}
	st.coldUs = float64(time.Since(cold)) / float64(time.Microsecond) / float64(srvPool+srvMaxSteps*srvLead)
	after := hostRef()
	st.loadMs, st.coldUs = atRefSpeed(st.loadMs, before, after), atRefSpeed(st.coldUs, before, after)
	return st, nil
}

// setupStack builds the stack setupTrials times and keeps the last.
func setupStack(e *env, rep *report, int8 bool) (*stack, error) {
	if err := writeFixtures(e.dir); err != nil {
		return nil, err
	}
	var st *stack
	for i := 0; i < setupTrials; i++ {
		d, err := timedSetup(func() (err error) {
			st, err = buildStack(e.dir, int8)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, d)
		runtime.GC() // so that the trials' garbage does not stack up in peak_rss_mb
	}
	return st, nil
}

// Outcomes of one open-loop request.
const (
	outOK = iota // scored reply within the latency limit
	outLate
	outShed
	outExpired
	outFailed
	numOutcomes
)

type sampledReply struct {
	start, steps int
	scores       []infer.StepScore
}

// serveArm is one run against a fresh server: the open loop of
// serve_overload, or the single waiting client of serve_steady.
type serveArm struct {
	overload bool
	dur      time.Duration
	tr       *tracer

	outcome []int
	rawMs   []float64 // due time to scored reply, as the wall clock saw it
	replyMs []float64 // the same at reference host speed
	admitMs []float64 // Do call to return, likewise
	lagMs   []float64 // how late the generator sent each request
	refMs   float64   // the run's median reference-kernel time
	count   [numOutcomes]int
	stats   serve.Stats
	kept    []*sampledReply // by request; nil where the reply was not sampled
	mallocs uint64
}

// nextRequest draws a request: a start from the pool and a length from
// {1,2,4} in seeded blocks that hold each length once, so that every
// seed offers the same mix and the median request is always a 2-step
// one. Only serve_overload mixes priorities.
func (a *serveArm) nextRequest(rng *tensor.RNG, i int, block *[]int) serve.Request {
	if i%len(srvSteps) == 0 {
		*block = rng.Perm(len(srvSteps))
	}
	req := serve.Request{Start: rng.Intn(srvPool), Steps: srvSteps[(*block)[i%len(srvSteps)]]}
	if u := rng.Float64(); a.overload && u < 0.2 {
		req.Priority = serve.PriorityLow
	} else if a.overload && u >= 0.8 {
		req.Priority = serve.PriorityHigh
	}
	return req
}

// do sends request i, which was due at due, and records its outcome;
// every sampleEvery-th scored reply is kept for verify. It returns the
// reply time.
func (a *serveArm) do(srv *serve.Server, i int, req serve.Request, due time.Time, scored *atomic.Int64) time.Time {
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(srvLimit))
	defer cancel()
	sent := time.Now()
	resp, err := srv.Do(ctx, req)
	now := time.Now()
	switch {
	case err == nil && now.Sub(due) <= srvLimit:
		a.outcome[i] = outOK
	case err == nil:
		a.outcome[i] = outLate
	case errors.Is(err, serve.ErrOverloaded):
		a.outcome[i] = outShed
	case errors.Is(err, context.DeadlineExceeded):
		a.outcome[i] = outExpired
	default:
		a.outcome[i] = outFailed
	}
	if err == nil && scored.Add(1)%sampleEvery == 1 {
		a.kept[i] = &sampledReply{req.Start, req.Steps, resp.Scores}
	}
	if a.tr != nil {
		id := a.tr.add("serve.request", due, now, 0, i, 1+i%64)
		a.tr.add("serve.do", sent, now, id, i, 1+i%64)
	}
	return now
}

func (a *serveArm) run(st *stack, seed uint64) error {
	cfg := serve.Config{MaxBatch: srvMaxBatch, MaxWait: srvMaxWait, QueueCap: srvQueueCap}
	if a.overload {
		cfg.ShedLowDepth = srvShedLowDepth
	}
	srv, err := serve.NewServer(cfg, []*serve.Replica{serve.NewReplica(0, st.eng, st.sc)})
	if err != nil {
		return err
	}
	before := mallocs()
	if a.overload {
		a.openLoop(srv, seed)
	} else {
		a.oneClient(srv, seed)
	}
	srv.Close()
	a.mallocs = mallocs() - before
	a.stats = srv.Stats()
	for _, o := range a.outcome {
		a.count[o]++
	}
	return nil
}

// openLoop offers the seeded arrival stream at overloadRPS whatever the
// server does. Requests overlap, so host speed is sampled alongside and
// each reply is converted with the samples taken during its lifetime.
func (a *serveArm) openLoop(srv *serve.Server, seed uint64) {
	rng := tensor.NewRNG(seed)
	dues := poisson(rng, overloadRPS, a.dur)
	reqs, block := make([]serve.Request, len(dues)), []int(nil)
	for i := range reqs {
		reqs[i] = a.nextRequest(rng, i, &block)
	}
	a.outcome, a.kept = make([]int, len(dues)), make([]*sampledReply, len(dues))
	var scored atomic.Int64
	ref := startRefSampler()
	fired := openLoop(dues, func(i int, due time.Time) { a.do(srv, i, reqs[i], due, &scored) })
	ref.finish()
	a.refMs = median(ref.ms)
	for i, f := range fired {
		a.lagMs = append(a.lagMs, f.lagMs())
		if o := a.outcome[i]; o == outOK || o == outLate {
			speed := ref.during(f.due, f.done)
			a.rawMs = append(a.rawMs, f.latencyMs())
			a.replyMs = append(a.replyMs, atRefSpeed(f.latencyMs(), speed, speed))
			a.admitMs = append(a.admitMs, atRefSpeed(ms(f.done.Sub(f.sent)), speed, speed))
		}
	}
}

// oneClient is the closed loop: one caller that sends its next request
// when the previous reply has arrived, each request bracketed by the
// reference kernel like every other closed-loop op.
func (a *serveArm) oneClient(srv *serve.Server, seed uint64) {
	rng, block := tensor.NewRNG(seed), []int(nil)
	var scored atomic.Int64
	var refs []float64
	begin, before := time.Now(), hostRef()
	for i := 0; time.Since(begin) < a.dur; i++ {
		req := a.nextRequest(rng, i, &block)
		a.outcome, a.kept = append(a.outcome, outFailed), append(a.kept, nil)
		due := time.Now()
		done := a.do(srv, i, req, due, &scored)
		after := hostRef()
		a.lagMs = append(a.lagMs, 0)
		if o := a.outcome[i]; o == outOK || o == outLate {
			a.rawMs = append(a.rawMs, ms(done.Sub(due)))
			a.replyMs = append(a.replyMs, atRefSpeed(ms(done.Sub(due)), before, after))
			a.admitMs = append(a.admitMs, a.replyMs[len(a.replyMs)-1])
		}
		refs, before = append(refs, after), after
	}
	a.refMs = median(refs)
}

// verify checks that no request was lost or double-counted and that
// sampled replies are bit-identical to a direct engine rollout.
func (a *serveArm) verify(st *stack, rep *report) {
	n, s := len(a.outcome), a.stats
	shed := int(s.ShedCapacity + s.ShedPriority)
	if a.count[outShed] != shed {
		rep.fail("clients saw %d shed requests, the server counted %d", a.count[outShed], shed)
	}
	if s.Accepted != s.Completed+s.Failed {
		rep.fail("accepted %d != completed %d + failed %d after drain", s.Accepted, s.Completed, s.Failed)
	}
	// Everything not shed was admitted, except requests already past
	// their deadline when sent, which Do refuses before admission.
	if pre := n - shed - int(s.Accepted); pre < 0 || pre > a.count[outExpired] {
		rep.fail("served+shed+expired+failed != attempted: %d requests, %d shed, %d accepted, %d expired",
			n, shed, s.Accepted, a.count[outExpired])
	}
	sampled := 0
	for _, r := range a.kept {
		if r == nil {
			continue
		}
		sampled++
		if want := st.eng.ScoredRollout(st.sc, r.start, r.steps); !sameScores(r.scores, want) {
			rep.fail("reply for start %d steps %d differs from a direct engine rollout", r.start, r.steps)
			break
		}
	}
	if sampled == 0 {
		rep.fail("no reply was sampled for the bit-identity check")
	}
}

func sameScores(a, b []infer.StepScore) bool {
	return slices.EqualFunc(a, b, func(x, y infer.StepScore) bool {
		return x.Step == y.Step && x.LeadHours == y.LeadHours &&
			slices.Equal(x.RMSE, y.RMSE) && slices.Equal(x.ACC, y.ACC)
	})
}

func runServe(e *env, overload bool) (*report, error) {
	rep := newReport(requestTail)
	st, err := setupStack(e, rep, false)
	if err != nil {
		return nil, err
	}
	main := &serveArm{overload: overload, dur: e.window}
	if e.traced {
		main.dur = e.window * 3 / 10
	}
	if err := main.run(st, e.seed); err != nil {
		return nil, err
	}
	main.verify(st, rep)
	rep.rawMs, rep.opMs, rep.wall = main.rawMs, main.replyMs, main.dur
	rep.attempted, rep.failed = len(main.outcome), main.count[outFailed]
	rep.units = float64(main.count[outOK])
	if !e.traced {
		return rep, nil
	}

	tr := &serveArm{overload: overload, dur: e.window * 6 / 10, tr: e.tr}
	if err := tr.run(st, e.seed+1); err != nil {
		return nil, err
	}
	tr.verify(st, rep)
	L, n, s := rep.layer, float64(len(tr.outcome)), tr.stats
	L["trace.overhead_pct"] = (median(tr.replyMs)/median(rep.opMs) - 1) * 100
	L["host.ref_ms"] = tr.refMs
	L["serve.ok_share"] = float64(tr.count[outOK]) / n
	L["serve.admit_to_reply_p50_ms"] = median(tr.admitMs)
	L["serve.admit_to_reply_p99_ms"] = percentile(tr.admitMs, 0.99)
	L["serve.mean_batch"] = float64(s.Completed) / float64(s.Batches)
	L["serve.batches_per_s"] = float64(s.Batches) / tr.dur.Seconds()
	L["serve.shed_capacity_share"] = float64(s.ShedCapacity) / n
	L["serve.shed_priority_share"] = float64(s.ShedPriority) / n
	L["serve.expired_share"] = float64(tr.count[outExpired]) / n
	L["serve.failed_share"] = float64(tr.count[outFailed]) / n
	L["serve.max_queue_depth"] = float64(s.MaxQueueDepth)
	L["serve.allocs_per_req"] = float64(tr.mallocs) / n
	L["loadgen.lag_p99_ms"] = percentile(tr.lagMs, 0.99)

	// Queue + batch-window wait: what is left of admit-to-reply after
	// the work itself, replayed as a scored rollout of the observed
	// mean batch at the median request length (2 steps).
	starts := make([]int, max(1, int(math.Round(L["serve.mean_batch"]))))
	service := timeOp(e.tr, "infer.scored_rollout", func() { st.eng.ScoredRolloutBatch(st.sc, starts, 2) }) / 1e3
	L["serve.wait_ms"] = L["serve.admit_to_reply_p50_ms"] - service

	replayInfer(e.tr, st, L)
	return rep, nil
}

// replayInfer times the pieces of a served forecast on the stack's
// engine: the planned forward, the unscored and scored rollout, the
// scoring kernels and the score cache, plus the set-up pieces.
func replayInfer(tr *tracer, st *stack, L map[string]float64) {
	L["ckpt.load_ms"] = st.loadMs
	L["infer.scorecache_cold_us"] = st.coldUs
	L["climate.field_gen_us"] = timeOp(tr, "climate.field_gen", func() { st.world.Field(1234) })

	starts := make([]int, srvMaxBatch)
	ics := make([]*tensor.Tensor, srvMaxBatch)
	leads := make([]float64, srvMaxBatch)
	for i := range starts {
		starts[i] = i * 31 % srvPool
		ics[i], leads[i] = st.sc.InputAt(starts[i]), st.sc.LeadHours()
	}
	p := infer.NewPlanQ(st.model, srvMaxBatch, st.quant)
	L["infer.plan_forward_ms"] = timeOp(tr, "infer.plan_forward", func() { p.Forward(ics, leads) }) / 1e3
	rollout := timeOp(tr, "infer.rollout_batch", func() { st.eng.RolloutBatch(ics, srvMaxSteps, leads, nil) }) / 1e3
	L["infer.rollout_batch_ms"] = rollout
	before := mallocs()
	calls := 0
	scored := timeOp(tr, "infer.scored_rollout_batch", func() {
		st.eng.ScoredRolloutBatch(st.sc, starts, srvMaxSteps)
		calls++
	}) / 1e3
	L["infer.allocs_per_rollout"] = float64(mallocs()-before) / float64(calls*srvMaxBatch)
	L["infer.score_share"] = 1 - rollout/scored

	pred, truth, clim := st.sc.TruthAt(8), st.sc.TruthAt(12), st.sc.ClimAt(12)
	L["metrics.score_us"] = timeOp(tr, "metrics.score", func() {
		metrics.WeightedRMSE(pred, truth)
		metrics.WeightedACC(pred, truth, clim)
	})
	L["infer.scorecache_hit_us"] = timeOp(tr, "infer.scorecache_hit", func() { st.sc.TruthAt(12) })

	var bytes int
	for _, prm := range st.model.Params() {
		if q, ok := st.quant[prm.Name]; ok {
			bytes += q.Bytes()
		} else {
			bytes += 4 * prm.NumEl()
		}
	}
	L["infer.weight_bytes"] = float64(bytes)

	// The model's largest matmul at the fused batch: [batch·tokens, dim]
	// by the MLP up-projection.
	rows, rng := srvMaxBatch*st.model.Config.Tokens(), tensor.NewRNG(17)
	w := tensor.Randn(rng, 1, trainDim, 4*trainDim)
	L["tensor.matmul_f32_gflops"] = matmulGflops(tr, "tensor.matmul_f32", rows, trainDim, 4*trainDim,
		func(dst, a *tensor.Tensor) { tensor.MatMulInto(dst, a, w) })
	L["tensor.forkjoin_us"] = forkjoinUs(tr)
	if st.quant != nil {
		for kind, name := range map[tensor.QuantKind]string{tensor.QuantInt8: "tensor.matmul_int8", tensor.QuantQ4: "tensor.matmul_q4"} {
			q := tensor.QuantizeTensor(w, kind)
			L[name+"_gflops"] = matmulGflops(tr, name, rows, trainDim, 4*trainDim,
				func(dst, a *tensor.Tensor) { tensor.MatMulQuantInto(dst, a, q, nil) })
		}
	}
}

func runForecast(e *env) (*report, error) {
	rep := newReport(batchTail)
	st, err := setupStack(e, rep, true)
	if err != nil {
		return nil, err
	}
	type kept struct {
		start  int
		scores []infer.StepScore
	}
	var samples []kept
	// loop is the closed loop: one caller, the next batch only after
	// the previous one is scored.
	var refs []float64
	loop := func(dur time.Duration, seed uint64, tr *tracer) (raw, atRef []float64) {
		rng, starts := tensor.NewRNG(seed), make([]int, srvMaxBatch)
		begin, before := time.Now(), hostRef()
		for n := 0; time.Since(begin) < dur; n++ {
			for i := range starts {
				starts[i] = rng.Intn(srvPool)
			}
			t0 := time.Now()
			scores := st.eng.ScoredRolloutBatch(st.sc, starts, srvMaxSteps)
			t1 := time.Now()
			after := hostRef()
			raw = append(raw, ms(t1.Sub(t0)))
			atRef = append(atRef, atRefSpeed(raw[n], before, after))
			refs, before = append(refs, after), after
			tr.add("infer.scored_rollout_batch", t0, t1, 0, n, 0)
			if n%sampleEvery == 0 {
				samples = append(samples, kept{starts[0], scores[0]})
			}
		}
		return raw, atRef
	}
	main := e.window
	if e.traced {
		main = e.window * 3 / 10
	}
	rep.rawMs, rep.opMs = loop(main, e.seed, nil)
	rep.wall, rep.attempted = sumMs(rep.opMs), len(rep.opMs)
	rep.units = float64(srvMaxBatch * len(rep.opMs))
	for _, s := range samples {
		if !sameScores(s.scores, st.eng.ScoredRollout(st.sc, s.start, srvMaxSteps)) {
			rep.fail("batched rollout from start %d differs from a single-sample rollout", s.start)
			break
		}
	}
	if !e.traced {
		return rep, nil
	}

	_, traced := loop(e.window*4/10, e.seed+1, e.tr)
	L := rep.layer
	L["trace.overhead_pct"] = (median(traced)/median(rep.opMs) - 1) * 100
	L["host.ref_ms"] = median(refs)
	replayInfer(e.tr, st, L)

	// Output quality beside speed: how far int8 moves the scores, and
	// what quantizing at load (orbit-serve's path for a float32
	// checkpoint) would cost.
	f32, err := buildStack(e.dir, false)
	if err != nil {
		return nil, err
	}
	var sq float64
	var n int
	for start := 0; start < srvPool; start += 32 {
		a, b := st.eng.ScoredRollout(st.sc, start, srvMaxSteps), f32.eng.ScoredRollout(f32.sc, start, srvMaxSteps)
		for k := range a {
			for c := range a[k].RMSE {
				d := a[k].RMSE[c] - b[k].RMSE[c]
				sq += d * d
				n++
			}
		}
	}
	L["quant.score_delta_rmse"] = math.Sqrt(sq / float64(n))
	L["quant.quantize_ms"], err = timedAtRefSpeed(func() error {
		_, err := ckpt.QuantizeModel(f32.model, quant.Int8)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("quantize replay: %w", err)
	}
	return rep, nil
}
