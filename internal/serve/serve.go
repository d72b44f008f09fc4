// Package serve is the serving resilience layer: a bounded admission
// queue with priority-aware load shedding, work-conserving batch
// formation, graceful degradation under overload, and a health-checked
// replica pool whose failed batches go back to the queue — the
// overload-safe, fault-tolerant front end the ROADMAP's "millions of
// users" item requires in front of internal/infer.
//
// Dataflow:
//
//	Do(ctx, req) ── admission (capacity / priority shed, degrade mark)
//	            └─► pending queue ◄──────────────────────────────┐
//	                 │ a healthy replica's worker is free: it    │
//	                 │ takes up to MaxBatch live calls (an idle  │
//	                 │ worker takes a lone call at once; calls   │
//	                 │ pile up only behind busy workers)         │
//	                 └─► runBatch on that worker                 │
//	                      ├─ ok: deliver responses               │
//	                      └─ replica dead: latch it, put the ────┘
//	                         unanswered calls back at the head
//	                         (bit-identical results, no request
//	                         ever lost)
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"orbit/internal/infer"
)

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrOverloaded is returned when admission control sheds a request —
// the queue is at capacity, or a low-priority request arrived above
// the priority shed watermark. HTTP front ends map it to 429 with a
// Retry-After hint.
var ErrOverloaded = errors.New("serve: overloaded, retry later")

// ErrNoHealthyReplica is returned when a call cannot be placed: every
// replica is dead and no batch is left running.
var ErrNoHealthyReplica = errors.New("serve: no healthy replica")

// Priority orders requests under overload. The zero value is
// PriorityNormal, so naive callers get the default treatment.
type Priority int

const (
	// PriorityNormal requests shed only at queue capacity.
	PriorityNormal Priority = iota
	// PriorityLow requests shed earlier, at Config.ShedLowDepth.
	PriorityLow
	// PriorityHigh requests are never served degraded.
	PriorityHigh
)

// String returns the wire name of the priority.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityHigh:
		return "high"
	default:
		return "normal"
	}
}

// ParsePriority maps a wire name ("", "low", "normal", "high") to a
// Priority; unknown names error.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	case "high":
		return PriorityHigh, nil
	}
	return 0, fmt.Errorf("serve: unknown priority %q", s)
}

// Request is one rollout to serve, with its overload priority.
type Request struct {
	Start    int
	Steps    int
	Priority Priority
}

// Response is one served rollout, annotated with the resilience
// machinery's observable effects.
type Response struct {
	Start, Steps int
	// Coalesced is how many requests shared the forward batch.
	Coalesced int
	// Replica identifies the replica that produced the result.
	Replica int
	// Retries counts the replica failures this request survived: each
	// put it back in the queue.
	Retries int
	// Degraded marks a rollout served without scoring (overload mode):
	// Scores is nil and Means carries the raw rollout summary.
	Degraded bool
	// Scores are the per-step wRMSE/wACC (nil when Degraded).
	Scores []infer.StepScore
	// Means are per-step per-channel spatial means of the predicted
	// fields — the raw-rollout payload of degraded mode, which skips
	// the ~5×-a-forward truth/climatology generation entirely.
	Means [][]float64
}

// Config tunes the resilience layer. Zero values take the documented
// defaults; DegradeDepth and ShedLowDepth are disabled at 0. NewServer
// rejects a negative value and a MaxBatch wider than a replica's
// engine batch.
type Config struct {
	// MaxBatch is the coalesced batch width (default: the smallest
	// replica engine's fused batch width).
	MaxBatch int
	// MaxWait is no longer read: batches form when a replica worker
	// frees up, so there is no fill window left to bound. The field
	// stays only because the benchmark (frozen for this change) sets
	// it; it goes with the next benchmark change.
	MaxWait time.Duration
	// QueueCap bounds admitted-but-unfinished requests; beyond it
	// admission sheds with ErrOverloaded (default 4×MaxBatch). This is
	// the bound that keeps accepted-request latency finite under any
	// offered load.
	QueueCap int
	// MaxSteps caps the rollout horizon a request may ask for
	// (0 = uncapped).
	MaxSteps int
	// DegradeDepth is the queue depth at which new non-high-priority
	// requests are served degraded — raw rollouts, no scoring
	// (0 = never degrade).
	DegradeDepth int
	// ShedLowDepth is the queue depth at which PriorityLow requests
	// are shed (0 = low priority sheds only at QueueCap).
	ShedLowDepth int
}

// Server is the resilient serving front end over a replica pool.
type Server struct {
	cfg      Config
	replicas []*Replica

	// mu guards the one queue → batch → replica state machine: the
	// pending queue, each call's answered flag, the replicas' busy
	// workers, and the admission depth.
	mu       sync.Mutex
	pending  []*call // admitted, waiting for a free replica worker (FIFO)
	busy     []int   // per replica: engine workers running a batch
	running  int     // sum of busy
	depth    int     // admitted callers not yet answered
	maxDepth int
	rr       int // round-robin replica cursor
	closed   bool
	inflight sync.WaitGroup // unanswered calls and running batches

	st counters
}

type call struct {
	req      Request
	ctx      context.Context
	degraded bool
	admitted time.Time
	answered bool // guarded by Server.mu; set once, by whoever answers the caller
	retries  int  // replica failures survived; guarded by Server.mu
	scores   []infer.StepScore
	means    [][]float64
	ch       chan callResult
}

type callResult struct {
	resp *Response
	err  error
}

// NewServer wires the resilience layer over a pool of replicas.
func NewServer(cfg Config, replicas []*Replica) (*Server, error) {
	if len(replicas) == 0 {
		return nil, errors.New("serve: need at least one replica")
	}
	// A batch holds one engine worker, so it must fit one fused forward
	// of every replica: a wider one would split across several workers.
	width := 0
	seen := make(map[int]bool, len(replicas))
	for _, r := range replicas {
		if r == nil || r.Engine == nil || r.Scores == nil {
			return nil, errors.New("serve: replica needs an engine and a score cache")
		}
		if seen[r.ID] {
			return nil, fmt.Errorf("serve: duplicate replica id %d", r.ID)
		}
		seen[r.ID] = true
		if b := r.Engine.Cfg.MaxBatch; width == 0 || b < width {
			width = b
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"MaxBatch", cfg.MaxBatch}, {"QueueCap", cfg.QueueCap}, {"MaxSteps", cfg.MaxSteps},
		{"DegradeDepth", cfg.DegradeDepth}, {"ShedLowDepth", cfg.ShedLowDepth}} {
		if f.v < 0 {
			return nil, fmt.Errorf("serve: negative %s %d", f.name, f.v)
		}
	}
	if cfg.MaxBatch > width {
		return nil, fmt.Errorf("serve: MaxBatch %d above the smallest replica engine's batch width %d", cfg.MaxBatch, width)
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = width
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 4 * cfg.MaxBatch
	}
	return &Server{cfg: cfg, replicas: replicas, busy: make([]int, len(replicas))}, nil
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Do submits a request and blocks until it is served, shed, or its
// context expires. Safe for arbitrary concurrency.
//
// Error classes: *infer.RequestError (invalid request), ErrOverloaded
// (admission shed), ErrClosed, ErrNoHealthyReplica (pool exhausted),
// or ctx.Err() (deadline/cancellation).
func (s *Server) Do(ctx context.Context, req Request) (*Response, error) {
	if req.Steps < 1 {
		return nil, &infer.RequestError{Start: req.Start, Steps: req.Steps, Reason: "steps must be >= 1"}
	}
	if s.cfg.MaxSteps > 0 && req.Steps > s.cfg.MaxSteps {
		return nil, &infer.RequestError{Start: req.Start, Steps: req.Steps,
			Reason: fmt.Sprintf("steps above the server cap %d", s.cfg.MaxSteps)}
	}
	if err := s.replicas[0].Scores.CheckStart(req.Start); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := &call{req: req, ctx: ctx, admitted: time.Now(), ch: make(chan callResult, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	// Admission control: the hard capacity bound applies to every
	// priority (bounded queue ⇒ bounded latency); low priority sheds
	// earlier at the ShedLowDepth watermark.
	if s.depth >= s.cfg.QueueCap {
		s.mu.Unlock()
		s.st.shedCapacity.Add(1)
		return nil, ErrOverloaded
	}
	if req.Priority == PriorityLow && s.cfg.ShedLowDepth > 0 && s.depth >= s.cfg.ShedLowDepth {
		s.mu.Unlock()
		s.st.shedPriority.Add(1)
		return nil, ErrOverloaded
	}
	// Graceful degradation: above DegradeDepth the queue is deep
	// enough that scoring (≈5× a forward per step) would push it
	// deeper; serve raw rollouts instead. High priority keeps scores.
	c.degraded = s.cfg.DegradeDepth > 0 && s.depth >= s.cfg.DegradeDepth && req.Priority != PriorityHigh
	s.depth++
	if s.depth > s.maxDepth {
		s.maxDepth = s.depth
	}
	s.st.accepted.Add(1)
	s.inflight.Add(1)
	s.pending = append(s.pending, c)
	s.scheduleLocked()
	s.mu.Unlock()
	select {
	case r := <-c.ch:
		return r.resp, r.err
	case <-ctx.Done():
	}
	// The caller is giving up: it leaves depth now, not when a batch
	// gets round to noticing. A call still queued is unlinked and never
	// reaches a replica; one already in a running batch has its result
	// discarded on delivery.
	s.mu.Lock()
	if i := slices.Index(s.pending, c); i >= 0 {
		s.pending = slices.Delete(s.pending, i, i+1)
		s.st.droppedExpired.Add(1)
	}
	s.answerLocked(c, nil, ctx.Err())
	s.mu.Unlock()
	// If a reply or an error won the race for the call, that is its one
	// answer.
	r := <-c.ch
	return r.resp, r.err
}

// answerLocked answers an admitted call, once: the first answer leaves
// depth, is counted and reaches the caller; a later one (a batch
// finishing after its caller gave up) is dropped. Caller holds s.mu.
func (s *Server) answerLocked(c *call, resp *Response, err error) {
	if c.answered {
		return
	}
	c.answered = true
	s.depth--
	if err != nil {
		s.st.failed.Add(1)
	} else {
		s.st.completed.Add(1)
		if c.degraded {
			s.st.degraded.Add(1)
		}
		s.st.latency.observe(time.Since(c.admitted))
	}
	c.ch <- callResult{resp: resp, err: err} // buffered; the one send
	s.inflight.Done()
}

// scheduleLocked is the work-conserving step, run after every arrival
// and every batch completion: while calls are pending and a healthy
// replica has a free worker, form a batch for it. A batch therefore
// grows only while every worker is busy. Caller holds s.mu.
func (s *Server) scheduleLocked() {
	for len(s.pending) > 0 {
		i := s.freeReplicaLocked()
		if i < 0 {
			if s.running == 0 {
				// No batch will come back to reschedule: the pool is dead.
				for _, c := range s.pending {
					s.answerLocked(c, nil, ErrNoHealthyReplica)
				}
				s.pending = nil
			}
			return
		}
		batch := s.takeLocked()
		if len(batch) == 0 {
			return
		}
		s.busy[i]++
		s.running++
		s.inflight.Add(1)
		s.st.batches.Add(1)
		go s.runBatch(i, batch)
	}
}

// freeReplicaLocked returns the index of the next healthy replica,
// round-robin, with an engine worker not running a batch, or -1.
// Caller holds s.mu.
func (s *Server) freeReplicaLocked() int {
	n := len(s.replicas)
	for k := 0; k < n; k++ {
		i := (s.rr + k) % n
		if r := s.replicas[i]; s.busy[i] < r.Engine.Cfg.Workers && r.Healthy() {
			s.rr = (i + 1) % n
			return i
		}
	}
	return -1
}

// takeLocked forms a batch from the head of the queue: up to MaxBatch
// calls whose context is still live; expired ones are answered on the
// way. Caller holds s.mu.
func (s *Server) takeLocked() []*call {
	batch := make([]*call, 0, min(len(s.pending), s.cfg.MaxBatch))
	k := 0
	for ; k < len(s.pending) && len(batch) < s.cfg.MaxBatch; k++ {
		c := s.pending[k]
		if err := c.ctx.Err(); err != nil {
			s.st.droppedExpired.Add(1)
			s.answerLocked(c, nil, err)
			continue
		}
		batch = append(batch, c)
	}
	s.pending = slices.Delete(s.pending, 0, k)
	return batch
}

// runBatch runs one batch on replica i's free worker, then hands the
// worker back and reschedules. A replica's results are delivered only
// after it passes the post-batch health check. When it fails instead,
// it is latched dead and the batch's unanswered calls go back to the
// head of the queue in their order, so scheduleLocked places them on a
// healthy replica's free worker as it places every batch. The rerun is
// bit-identical to a no-fault run, and no request is ever lost.
func (s *Server) runBatch(i int, batch []*call) {
	r := s.replicas[i]
	err := r.run(batch)
	if err != nil {
		r.markDead(err)
	}
	s.mu.Lock()
	s.busy[i]--
	s.running--
	if err == nil {
		for _, c := range batch {
			s.answerLocked(c, &Response{
				Start:     c.req.Start,
				Steps:     c.req.Steps,
				Coalesced: len(batch),
				Replica:   r.ID,
				Retries:   c.retries,
				Degraded:  c.degraded,
				Scores:    c.scores,
				Means:     c.means,
			}, nil)
		}
	} else {
		s.st.replicaFailures.Add(1)
		retry := slices.DeleteFunc(batch, func(c *call) bool { return c.answered })
		for _, c := range retry {
			c.retries++
		}
		if len(retry) > 0 {
			s.st.retries.Add(1)
			s.pending = slices.Insert(s.pending, 0, retry...)
		}
	}
	s.scheduleLocked()
	s.mu.Unlock()
	s.inflight.Done()
}

// Close stops admission and waits until every admitted request has
// been answered — the graceful shutdown path orbit-serve runs on
// SIGTERM. Queued calls need no flush: the replica workers keep
// pulling until the queue is empty.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
}
