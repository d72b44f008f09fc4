package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	orbit "orbit"
)

// options are the serving flags, separated from flag parsing so tests
// can build an app directly.
type options struct {
	addr         string
	ckptPath     string
	trainSteps   int
	maxBatch     int
	tp           int
	quantize     string
	stepsCap     int
	replicas     int
	queueCap     int
	degradeDepth int
	shedLowDepth int
	deadline     time.Duration
}

// app is the wired server: model, replica pool, resilient front end,
// and HTTP plumbing — constructed once, testable without a process.
type app struct {
	opts  options
	model *orbit.Model
	sc    *orbit.ScoreCache
	pool  []*orbit.ServeReplica
	fs    *orbit.ForecastServer
	srv   *http.Server
	ln    net.Listener
	done  chan struct{}
	drain drainEstimator
	stop  sync.Once
}

// newApp builds the model (checkpoint or fine-tuned demo), the replica
// pool, and the resilient serving front end.
func newApp(opts options) (*app, error) {
	if opts.replicas < 1 {
		return nil, fmt.Errorf("orbit-serve: -replicas %d, need at least 1", opts.replicas)
	}
	vars := orbit.RegistrySmall()
	const height, width = 16, 32
	chans := []int{4, 7, 1, 2} // z500, t850, t2m, u10
	lead := 1 * 4              // one day at 6-hourly steps

	var quantKind orbit.QuantKind
	if opts.quantize != "" {
		var err error
		if quantKind, err = orbit.ParseQuantKind(opts.quantize); err != nil {
			return nil, err
		}
	}

	var model *orbit.Model
	var quantW map[string]*orbit.QuantizedWeight
	var err error
	if opts.ckptPath != "" {
		if opts.quantize != "" {
			// An already-quantized checkpoint serves its own containers;
			// a float32 one is quantized at load.
			log.Printf("loading checkpoint %s (quantized %s serving)", opts.ckptPath, quantKind)
			model, quantW, err = orbit.LoadQuantizedModel(opts.ckptPath)
			if errors.Is(err, orbit.ErrNotQuantized) {
				if model, err = orbit.LoadInferenceModel(opts.ckptPath); err == nil {
					quantW, err = orbit.QuantizeModel(model, quantKind)
				}
			}
		} else {
			log.Printf("loading checkpoint %s", opts.ckptPath)
			model, err = orbit.LoadInferenceModel(opts.ckptPath)
		}
		if err != nil {
			return nil, err
		}
	} else {
		log.Printf("no -ckpt: fine-tuning a demo model (%d steps, 1-day lead)", opts.trainSteps)
		cfg := orbit.TinyConfig(len(vars), height, width)
		cfg.OutChannels = len(chans)
		model, err = orbit.NewModel(cfg, 1)
		if err != nil {
			return nil, err
		}
		tc := orbit.DefaultTrainConfig()
		tc.TotalSteps = opts.trainSteps
		tc.ResidualChans = chans
		trainDS := orbit.NewERA5Dataset(vars, height, width, 0, 730, lead)
		trainDS.OutputChans = chans
		orbit.NewTrainer(model, tc).Run(trainDS, tc.TotalSteps)
	}
	if model.Config.OutChannels != len(chans) {
		return nil, fmt.Errorf("served model predicts %d channels; this server's residual wiring expects %d",
			model.Config.OutChannels, len(chans))
	}
	if opts.quantize != "" && quantW == nil {
		// Demo path: quantize the freshly fine-tuned weights in memory.
		if quantW, err = orbit.QuantizeModel(model, quantKind); err != nil {
			return nil, err
		}
	}

	// Held-out evaluation year: initial conditions and verifying truth.
	// One score cache serves the whole pool — the truth tensors are
	// identical across replicas of the same model.
	evalDS := orbit.NewERA5Dataset(vars, height, width, 1200, 365*4, lead)
	evalDS.OutputChans = chans
	sc := orbit.NewScoreCache(evalDS, chans)

	pool := make([]*orbit.ServeReplica, opts.replicas)
	for i := range pool {
		eng, err := orbit.NewInferenceEngine(model, orbit.InferConfig{
			ResidualChans: chans,
			MaxBatch:      opts.maxBatch,
			TP:            opts.tp,
			Quant:         quantW,
		})
		if err != nil {
			return nil, err
		}
		eng.Warmup()
		pool[i] = orbit.NewServeReplica(i, eng, sc)
	}

	fs, err := orbit.NewForecastServer(orbit.ServeConfig{
		MaxBatch:     opts.maxBatch,
		QueueCap:     opts.queueCap,
		MaxSteps:     opts.stepsCap,
		DegradeDepth: opts.degradeDepth,
		ShedLowDepth: opts.shedLowDepth,
	}, pool)
	if err != nil {
		return nil, err
	}

	a := &app{opts: opts, model: model, sc: sc, pool: pool, fs: fs, done: make(chan struct{})}
	a.srv = &http.Server{Addr: opts.addr, Handler: a.handler()}
	return a, nil
}

// forecastRequest is the /v1/forecast wire format.
type forecastRequest struct {
	Start    int    `json:"start"`
	Steps    int    `json:"steps"`
	Priority string `json:"priority,omitempty"`
	// DeadlineMs bounds how long the request may wait end to end; on
	// expiry the server answers 504 and the request gives its queue slot
	// back at once.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// maxForecastBody caps the bytes read from a /v1/forecast body. The
// request is three small fields; the cap only has to be far above any
// honest encoding of them and far below what a client could use to
// pin a handler on an endless upload.
const maxForecastBody = 64 << 10

// decodeForecast reads exactly one JSON forecast request from the
// body, at most maxForecastBody bytes of it. Anything after the value
// but whitespace — and a deadline too long for a time.Duration — is an
// error; a body over the cap fails with *http.MaxBytesError.
func decodeForecast(w http.ResponseWriter, r *http.Request) (forecastRequest, error) {
	var req forecastRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxForecastBody))
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the request object")
		}
		return req, err
	}
	if int64(req.DeadlineMs) > math.MaxInt64/int64(time.Millisecond) {
		return req, fmt.Errorf("deadline_ms %d out of range", req.DeadlineMs)
	}
	return req, nil
}

// drainEstimator tracks the serving pipeline's completion rate from
// successive Stats().Completed observations, so an overload response
// can tell the client when the queue will plausibly have drained
// instead of a fixed guess. Samples closer together than minSampleGap
// only refresh the rate when work actually completed, keeping the
// estimate stable under request bursts.
type drainEstimator struct {
	mu        sync.Mutex
	lastT     time.Time
	lastDone  int64
	perSecond float64
}

const minSampleGap = 50 * time.Millisecond

// observe folds a (time, completed-counter) sample into the rate
// estimate with an exponential moving average — recent throughput
// dominates, but one anomalous gap cannot zero the estimate.
func (d *drainEstimator) observe(now time.Time, completed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lastT.IsZero() {
		d.lastT, d.lastDone = now, completed
		return
	}
	dt := now.Sub(d.lastT)
	done := completed - d.lastDone
	if dt < minSampleGap || done <= 0 {
		return
	}
	inst := float64(done) / dt.Seconds()
	if d.perSecond == 0 {
		d.perSecond = inst
	} else {
		d.perSecond = 0.7*d.perSecond + 0.3*inst
	}
	d.lastT, d.lastDone = now, completed
}

// rate returns the smoothed completions-per-second (0 = unknown).
func (d *drainEstimator) rate() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.perSecond
}

// retryAfterSeconds converts a queue depth and drain rate into the
// Retry-After a 429 carries: the whole seconds one queue drain takes,
// rounded up, clamped to [1, 60]. An unknown rate (the server sheds
// before completing anything) falls back to 1 second.
func retryAfterSeconds(depth int, perSecond float64) int {
	if perSecond <= 0 || depth <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(depth) / perSecond))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// retryAfter prices a shed response from the live queue depth and the
// estimated drain rate.
func (a *app) retryAfter(now time.Time) int {
	st := a.fs.Stats()
	a.drain.observe(now, st.Completed)
	return retryAfterSeconds(st.QueueDepth, a.drain.rate())
}

// statusFor maps a serving error to its HTTP status: 400 for invalid
// requests, 429 for admission sheds (with Retry-After), 504 for
// deadline expiry, 503 for closed/exhausted backends.
func statusFor(err error) int {
	var re *orbit.RolloutRequestError
	switch {
	case errors.As(err, &re):
		return http.StatusBadRequest
	case errors.Is(err, orbit.ErrServerOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusServiceUnavailable
	}
}

func (a *app) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /v1/model", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"config":     a.model.Config,
			"params":     a.model.NumParams(),
			"lead_hours": a.sc.LeadHours(),
			"max_batch":  a.fs.Config().MaxBatch,
			"queue_cap":  a.fs.Config().QueueCap,
			"replicas":   a.opts.replicas,
			"tp":         a.opts.tp,
			"quantize":   a.opts.quantize,
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, a.fs.Stats())
	})
	mux.HandleFunc("POST /v1/forecast", func(w http.ResponseWriter, r *http.Request) {
		req, err := decodeForecast(w, r)
		if err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, code, map[string]any{"error": fmt.Sprintf("bad request: %v", err)})
			return
		}
		prio, err := orbit.ParseRequestPriority(req.Priority)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
		ctx := r.Context()
		deadline := a.opts.deadline
		if req.DeadlineMs > 0 {
			deadline = time.Duration(req.DeadlineMs) * time.Millisecond
		}
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		t0 := time.Now()
		resp, err := a.fs.Do(ctx, orbit.ServeRequest{Start: req.Start, Steps: req.Steps, Priority: prio})
		if err != nil {
			code := statusFor(err)
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", strconv.Itoa(a.retryAfter(time.Now())))
			}
			writeJSON(w, code, map[string]any{"error": err.Error()})
			return
		}
		a.drain.observe(time.Now(), a.fs.Stats().Completed)
		writeJSON(w, http.StatusOK, map[string]any{
			"start":      resp.Start,
			"steps":      resp.Steps,
			"coalesced":  resp.Coalesced,
			"replica":    resp.Replica,
			"retries":    resp.Retries,
			"degraded":   resp.Degraded,
			"latency_ms": float64(time.Since(t0).Microseconds()) / 1000,
			"channels":   []string{"z500", "t850", "t2m", "u10"},
			"scores":     resp.Scores,
			"means":      resp.Means,
		})
	})
	return mux
}

// listen binds the address so tests can learn the port before serving.
func (a *app) listen() error {
	ln, err := net.Listen("tcp", a.opts.addr)
	if err != nil {
		return err
	}
	a.ln = ln
	return nil
}

// run serves until a shutdown signal arrives; it returns once the
// drain completes. The signal handler is registered before serving
// starts, so a SIGTERM during startup is never lost.
func (a *app) run() error {
	if a.ln == nil {
		if err := a.listen(); err != nil {
			return err
		}
	}
	sig := make(chan os.Signal, 1)
	// SIGTERM is what orchestrators (Kubernetes, systemd) send first;
	// os.Interrupt covers ^C in a terminal. Both drain gracefully.
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("%v: draining in-flight requests", s)
		a.shutdown()
	}()
	err := a.srv.Serve(a.ln)
	if err == http.ErrServerClosed {
		err = nil
	}
	<-a.done
	return err
}

// shutdown drains gracefully. The forecast server closes first: Close
// stops admission and returns once every admitted request has been
// answered, so in-flight HTTP handlers (blocked in fs.Do) complete —
// requests still queued behind busy replicas included. Only then does
// the HTTP server shut down, which waits for those handlers to write
// their responses.
func (a *app) shutdown() {
	// Idempotent: a direct shutdown call and the signal handler may
	// both fire (and a second signal must not re-drain).
	a.stop.Do(func() {
		a.fs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := a.srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		close(a.done)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
