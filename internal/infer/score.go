package infer

import (
	"fmt"
	"sync"

	"orbit/internal/climate"
	"orbit/internal/metrics"
	"orbit/internal/tensor"
)

// StepScore is one rollout step's skill against the verifying truth.
type StepScore struct {
	Step      int       // 0-based rollout step
	LeadHours float64   // hours ahead of the initial condition
	RMSE      []float64 // per output channel, latitude-weighted
	ACC       []float64 // per output channel, vs day-of-year climatology
}

// ScoreCache serves the tensors rollout scoring needs — normalized
// input fields, channel-selected truth, and day-of-year climatology —
// caching each per time step. Generating a synthetic truth field costs
// about 1 % of an eight-sample planned forward (a traced serve_steady
// run of bench/run.sh: climate.field_gen_us 47 µs, infer.plan_forward_ms
// 3.97 ms); the cache saves that, and concurrent requests read one
// tensor per step. It is shared safely across concurrent requests and
// is per-model in the serving front end (normalization statistics
// differ between models).
type ScoreCache struct {
	DS    *climate.Dataset
	Chans []int // the channels scored (the engine's output mapping)

	mu     sync.Mutex
	fields map[int]*tensor.Tensor
	truth  map[int]*tensor.Tensor
	clim   map[int]*tensor.Tensor
}

// NewScoreCache builds an empty cache over a dataset. chans selects
// the scored channels; nil scores every channel.
func NewScoreCache(ds *climate.Dataset, chans []int) *ScoreCache {
	if chans == nil {
		chans = make([]int, len(ds.World.Vars))
		for i := range chans {
			chans[i] = i
		}
	}
	return &ScoreCache{
		DS:     ds,
		Chans:  chans,
		fields: make(map[int]*tensor.Tensor),
		truth:  make(map[int]*tensor.Tensor),
		clim:   make(map[int]*tensor.Tensor),
	}
}

// InputAt returns the cached normalized full-state field at
// dataset-relative step i — the rollout initial condition. The tensor
// is shared and must be treated as read-only.
func (sc *ScoreCache) InputAt(i int) *tensor.Tensor {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if f, ok := sc.fields[i]; ok {
		return f
	}
	f := sc.DS.World.Field(sc.DS.StartStep + i)
	sc.DS.Stats.Normalize(f)
	sc.fields[i] = f
	return f
}

// TruthAt returns the cached normalized truth restricted to the scored
// channels at dataset-relative step i.
func (sc *ScoreCache) TruthAt(i int) *tensor.Tensor {
	sc.mu.Lock()
	if t, ok := sc.truth[i]; ok {
		sc.mu.Unlock()
		return t
	}
	sc.mu.Unlock()
	full := sc.InputAt(i)
	t := climate.SelectChannels(full, sc.Chans)
	sc.mu.Lock()
	sc.truth[i] = t
	sc.mu.Unlock()
	return t
}

// ClimAt returns the cached normalized day-of-year climatology valid
// at dataset-relative step i, restricted to the scored channels.
func (sc *ScoreCache) ClimAt(i int) *tensor.Tensor {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if c, ok := sc.clim[i]; ok {
		return c
	}
	c := sc.DS.World.ClimatologyAt(sc.DS.StartStep + i)
	sc.DS.Stats.Normalize(c)
	c = climate.SelectChannels(c, sc.Chans)
	sc.clim[i] = c
	return c
}

// LeadHours returns the dataset's forecast horizon per rollout step.
func (sc *ScoreCache) LeadHours() float64 {
	return float64(sc.DS.LeadSteps) * 24 / climate.StepsPerDay
}

// RequestError reports a rollout request rejected by validation —
// a start index outside the dataset window or a non-positive horizon.
// The serving layer returns it (never panics) at admission, so callers
// with bad indices fail there instead of deep inside the engine; match
// it with errors.As.
type RequestError struct {
	Start, Steps int
	Reason       string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("infer: bad request (start %d, steps %d): %s", e.Start, e.Steps, e.Reason)
}

// CheckStart validates a rollout start index against the dataset
// window, returning a *RequestError outside [0, DS.Len()). The serving
// layer calls it at admission; ScoredRolloutBatch calls it again so
// even direct engine callers fail fast with a typed error instead of
// panicking deep inside the rollout.
func (sc *ScoreCache) CheckStart(start int) error {
	if n := sc.DS.Len(); start < 0 || start >= n {
		return &RequestError{Start: start, Reason: fmt.Sprintf("start outside [0,%d)", n)}
	}
	return nil
}

// Warm fills the truth and climatology caches for a steps-long rollout
// from start. Callers warm before fanning a batch out, so every
// trajectory from the same window reuses one generated tensor.
func (sc *ScoreCache) Warm(start, steps int) {
	for k := 1; k <= steps; k++ {
		sc.TruthAt(start + k*sc.DS.LeadSteps)
		sc.ClimAt(start + k*sc.DS.LeadSteps)
	}
}

// Score scores the (0-based) step-th prediction of the rollout from
// start against its verifying truth and climatology.
func (sc *ScoreCache) Score(start, step int, pred *tensor.Tensor) StepScore {
	idx := start + (step+1)*sc.DS.LeadSteps
	truth := sc.TruthAt(idx)
	return StepScore{
		Step:      step,
		LeadHours: float64(step+1) * sc.LeadHours(),
		RMSE:      metrics.WeightedRMSE(pred, truth),
		ACC:       metrics.WeightedACC(pred, truth, sc.ClimAt(idx)),
	}
}

// ScoredRollout rolls out from the dataset sample at index start and
// scores every step's wRMSE and wACC against the verifying truth.
func (e *Engine) ScoredRollout(sc *ScoreCache, start, steps int) []StepScore {
	return e.ScoredRolloutBatch(sc, []int{start}, steps)[0]
}

// ScoredRolloutBatch is the batched ScoredRollout: the rollouts fuse
// into batched forward passes while each request keeps its own score
// trajectory.
func (e *Engine) ScoredRolloutBatch(sc *ScoreCache, starts []int, steps int) [][]StepScore {
	for _, s := range starts {
		if err := sc.CheckStart(s); err != nil {
			// No error return in this signature (the embedded-library
			// path); fail loudly at the boundary with the typed error
			// rather than an index panic deep in the rollout.
			panic(err)
		}
	}
	n := len(starts)
	lead := sc.LeadHours()
	ics := make([]*tensor.Tensor, n)
	leads := make([]float64, n)
	scores := make([][]StepScore, n)
	for i, s := range starts {
		ics[i] = sc.InputAt(s)
		leads[i] = lead
		scores[i] = make([]StepScore, steps)
		sc.Warm(s, steps)
	}
	e.RolloutBatch(ics, steps, leads, func(sample, step int, pred *tensor.Tensor) {
		scores[sample][step] = sc.Score(starts[sample], step, pred)
	})
	return scores
}
