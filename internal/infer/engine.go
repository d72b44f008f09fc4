package infer

import (
	"fmt"
	"runtime"
	"sync"

	"orbit/internal/tensor"
	"orbit/internal/vit"
)

// Config describes how an Engine turns model outputs into forecast
// states.
type Config struct {
	// ResidualChans mirrors train.Config.ResidualChans: when non-nil,
	// model output i is a tendency added to input channel
	// ResidualChans[i] (the GraphCast/FourCastNet trick), and it also
	// defines which state channels the outputs update during an
	// autoregressive rollout.
	ResidualChans []int
	// OutputChans maps model output i to input channel OutputChans[i]
	// for absolute-state models whose OutChannels differ from Channels.
	// nil with a full-state model means the identity. Ignored when
	// ResidualChans is set (which already carries the mapping).
	OutputChans []int
	// MaxBatch bounds the fused per-worker forward batch (default 8).
	MaxBatch int
	// Workers bounds concurrent forward workers (default GOMAXPROCS).
	Workers int
	// TP runs the transformer trunk tensor-parallel over a simulated
	// cluster group of this size (0 or 1 = single device). See
	// NewTPForecaster for the serving rationale.
	TP int
	// Quant supplies block-quantized weight containers keyed by
	// parameter name (as LoadQuantizedModel returns them). Worker plans
	// route those matmuls through the dequant-fused kernel and never
	// materialize a per-worker f32 copy of the quantized matrices; all
	// workers share the read-only containers. Incompatible with TP,
	// which shards float32 weights.
	Quant map[string]*tensor.Quantized
}

// Engine executes batched autoregressive rollouts with a forward-only
// model. It is safe for concurrent use: each worker owns a Plan
// (pre-allocated workspaces) and per-slot state buffers.
type Engine struct {
	Model *vit.Model
	Cfg   Config

	outChans []int // model output i updates state channel outChans[i]
	residual bool

	mu   sync.Mutex
	made int
	pool chan *worker
	tp   *TPForecaster
}

// worker is one concurrent rollout lane: a forward plan plus
// engine-owned state and composition buffers for MaxBatch slots.
type worker struct {
	plan   *Plan
	states []*tensor.Tensor // [C, H, W] rollout states
	preds  []*tensor.Tensor // [OutC, H, W] composed predictions
	leads  []float64
	order  []int // slot → sample of the running chunk, longest horizon first
}

// NewEngine plans an inference engine over a (typically loaded) model.
func NewEngine(m *vit.Model, cfg Config) (*Engine, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	mc := m.Config
	e := &Engine{Model: m, Cfg: cfg}
	switch {
	case cfg.ResidualChans != nil:
		e.outChans = cfg.ResidualChans
		e.residual = true
	case cfg.OutputChans != nil:
		e.outChans = cfg.OutputChans
	case mc.OutChannels == mc.Channels:
		e.outChans = make([]int, mc.Channels)
		for i := range e.outChans {
			e.outChans[i] = i
		}
	default:
		return nil, fmt.Errorf("infer: model predicts %d of %d channels; Config must map them (OutputChans or ResidualChans)", mc.OutChannels, mc.Channels)
	}
	if len(e.outChans) != mc.OutChannels {
		return nil, fmt.Errorf("infer: %d channel mappings for %d model outputs", len(e.outChans), mc.OutChannels)
	}
	for _, c := range e.outChans {
		if c < 0 || c >= mc.Channels {
			return nil, fmt.Errorf("infer: mapped channel %d outside [0,%d)", c, mc.Channels)
		}
	}
	if cfg.TP > 1 {
		if cfg.Quant != nil {
			return nil, fmt.Errorf("infer: quantized serving is single-device; the TP trunk shards float32 weights")
		}
		tp, err := NewTPForecaster(m, cfg.TP)
		if err != nil {
			return nil, err
		}
		e.tp = tp
		// The TP group is one shared simulated cluster; forwards are
		// serialized through it.
		e.Cfg.Workers = 1
		cfg.Workers = 1
	}
	e.pool = make(chan *worker, cfg.Workers)
	return e, nil
}

// acquire returns a worker, lazily building up to Cfg.Workers.
func (e *Engine) acquire() *worker {
	select {
	case w := <-e.pool:
		return w
	default:
	}
	e.mu.Lock()
	if e.made < e.Cfg.Workers {
		e.made++
		e.mu.Unlock()
		mc := e.Model.Config
		w := &worker{}
		if e.tp == nil {
			// TP engines never touch the single-device plan; skipping
			// it matters most exactly when TP is in play (models whose
			// workspaces don't fit one device).
			w.plan = NewPlanQ(e.Model, e.Cfg.MaxBatch, e.Cfg.Quant)
		}
		for i := 0; i < e.Cfg.MaxBatch; i++ {
			w.states = append(w.states, tensor.New(mc.Channels, mc.Height, mc.Width))
			w.preds = append(w.preds, tensor.New(mc.OutChannels, mc.Height, mc.Width))
			w.leads = append(w.leads, 0)
			w.order = append(w.order, 0)
		}
		return w
	}
	e.mu.Unlock()
	return <-e.pool
}

func (e *Engine) release(w *worker) { e.pool <- w }

// Warmup runs one full-batch forward per worker so first requests do
// not pay plan-priming costs (packing, per-size header builds) and the
// steady-state rollout step allocates nothing.
func (e *Engine) Warmup() {
	ws := make([]*worker, e.Cfg.Workers)
	for i := range ws {
		ws[i] = e.acquire()
	}
	for _, w := range ws {
		for b := 1; b <= e.Cfg.MaxBatch; b *= 2 {
			e.forward(w, w.states[:b], w.leads[:b])
		}
		e.forward(w, w.states[:e.Cfg.MaxBatch], w.leads[:e.Cfg.MaxBatch])
		e.release(w)
	}
}

// forward runs one batched forward through the plan or, for TP
// engines, sequentially through the tensor-parallel trunk.
func (e *Engine) forward(w *worker, states []*tensor.Tensor, leads []float64) []*tensor.Tensor {
	if e.tp == nil {
		return w.plan.Forward(states, leads)
	}
	outs := make([]*tensor.Tensor, len(states))
	for i, s := range states {
		outs[i] = e.tp.Forward(s, leads[i])
		if len(states) > 1 {
			// The TP head reuses its output buffer per call; batches
			// need each sample's fields to survive the loop.
			outs[i] = outs[i].Clone()
		}
	}
	return outs
}

// StepFunc receives each rollout step's composed prediction
// [OutC, H, W] for one sample. The tensor is engine-owned and valid
// only during the call; copy it to retain it. Under batched rollouts
// it is invoked concurrently for different samples.
type StepFunc func(sample, step int, pred *tensor.Tensor)

// Rollout runs one autoregressive rollout: the initial condition is
// advanced `steps` times, each step predicting leadHours ahead.
func (e *Engine) Rollout(ic *tensor.Tensor, steps int, leadHours float64, fn StepFunc) {
	e.RolloutRagged([]*tensor.Tensor{ic}, []int{steps}, []float64{leadHours}, fn)
}

// RolloutBatch rolls every initial condition out to the same horizon.
func (e *Engine) RolloutBatch(ics []*tensor.Tensor, steps int, leads []float64, fn StepFunc) {
	each := make([]int, len(ics))
	for i := range each {
		each[i] = steps
	}
	e.RolloutRagged(ics, each, leads, fn)
}

// RolloutRagged rolls out a batch of initial conditions, sample i for
// steps[i] steps. Samples are fused into per-worker forward batches of
// up to Cfg.MaxBatch and the chunks run concurrently on up to
// Cfg.Workers workers; a sample leaves its fused batch after its own
// last step, and each sample's trajectory is bit-identical to a
// single-sample rollout.
func (e *Engine) RolloutRagged(ics []*tensor.Tensor, steps []int, leads []float64, fn StepFunc) {
	if len(ics) != len(leads) || len(ics) != len(steps) {
		panic(fmt.Sprintf("infer: %d initial conditions, %d horizons, %d leads", len(ics), len(steps), len(leads)))
	}
	// Fork-join over chunks; the last one (the only one, for a batch of
	// up to MaxBatch) runs on the caller's goroutine.
	var wg sync.WaitGroup
	for lo := 0; lo < len(ics); lo += e.Cfg.MaxBatch {
		hi := min(lo+e.Cfg.MaxBatch, len(ics))
		if hi == len(ics) {
			e.runChunk(ics, steps, leads, lo, hi, fn)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runChunk(ics, steps, leads, lo, hi, fn)
		}()
	}
	wg.Wait()
}

// runChunk rolls samples [lo, hi) out on the next free worker.
func (e *Engine) runChunk(ics []*tensor.Tensor, steps []int, leads []float64, lo, hi int, fn StepFunc) {
	w := e.acquire()
	defer e.release(w)
	e.rolloutChunk(w, ics[lo:hi], steps[lo:hi], leads[lo:hi], lo, fn)
}

// rolloutChunk advances one worker's fused sub-batch, sample i for
// steps[i] steps. Slots are ordered longest horizon first, so the
// samples still rolling are always a prefix of the worker's buffers
// and each forward runs over exactly the live ones. The steady-state
// loop performs no heap allocations: states, predictions, the slot
// order and every forward intermediate live in worker-owned buffers.
func (e *Engine) rolloutChunk(w *worker, ics []*tensor.Tensor, steps []int, leads []float64, base int, fn StepFunc) {
	// Stable insertion sort (the chunk is at most MaxBatch wide): equal
	// horizons keep their submission order.
	order := w.order[:len(ics)]
	for i := range order {
		b := i
		for ; b > 0 && steps[order[b-1]] < steps[i]; b-- {
			order[b] = order[b-1]
		}
		order[b] = i
	}
	for b, i := range order {
		w.states[b].CopyFrom(ics[i])
		w.leads[b] = leads[i]
	}
	hw := e.Model.Config.Height * e.Model.Config.Width
	n := len(order)
	for s := 0; ; s++ {
		for n > 0 && steps[order[n-1]] <= s {
			n--
		}
		if n == 0 {
			return
		}
		outs := e.forward(w, w.states[:n], w.leads[:n])
		for b := 0; b < n; b++ {
			od, pd, sd := outs[b].Data(), w.preds[b].Data(), w.states[b].Data()
			for i, c := range e.outChans {
				out := od[i*hw : (i+1)*hw]
				pred := pd[i*hw : (i+1)*hw]
				if e.residual {
					// The model predicts the tendency of channel c:
					// prediction = input[c] + output (the exact float
					// order of train.Forecaster.Predict).
					state := sd[c*hw : (c+1)*hw]
					for j := range out {
						pred[j] = out[j] + state[j]
					}
				} else {
					copy(pred, out)
				}
			}
			// Predictions become the next state's mapped channels;
			// unpredicted channels persist (the static variables).
			for i, c := range e.outChans {
				copy(sd[c*hw:(c+1)*hw], pd[i*hw:(i+1)*hw])
			}
			if fn != nil {
				fn(base+order[b], s, w.preds[b])
			}
		}
	}
}
