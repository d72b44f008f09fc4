package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orbit/internal/infer"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

const (
	modelStarts = 8
	modelSteps  = 3
)

// modelRef is the sequential reference every served reply is checked
// against: one single-sample rollout per start, scored and summarized
// the way a degraded reply is. A reply of k steps is its first k.
type modelRef struct {
	scores [modelStarts][]infer.StepScore
	means  [modelStarts][][]float64
}

func newModelRef(t *testing.T, m *vit.Model, sc *infer.ScoreCache) *modelRef {
	eng, err := infer.NewEngine(m, infer.Config{MaxBatch: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := &modelRef{}
	hw := m.Config.Height * m.Config.Width
	for start := 0; start < modelStarts; start++ {
		ref.scores[start] = eng.ScoredRollout(sc, start, modelSteps)
		eng.Rollout(sc.InputAt(start), modelSteps, sc.LeadHours(), func(_, _ int, pred *tensor.Tensor) {
			mean := make([]float64, m.Config.OutChannels)
			for ch := range mean {
				var sum float64
				for _, v := range pred.Data()[ch*hw : (ch+1)*hw] {
					sum += float64(v)
				}
				mean[ch] = sum / float64(hw)
			}
			ref.means[start] = append(ref.means[start], mean)
		})
	}
	return ref
}

// modelRun is one seeded scenario: a random pool and configuration, the
// test-side bookkeeping of every Do call, and the hook that counts
// running batches.
type modelRun struct {
	t   *testing.T
	s   *Server
	ref *modelRef
	cfg Config

	workers []int // engine workers per replica
	slots   int   // their sum: the most batches that may run at once

	gate      chan struct{} // closed when the sequential phase ends
	openGate  func()
	inHook    atomic.Int64
	inHookRep []atomic.Int64
	killed    atomic.Bool // set before the first Kill: a pool error is possible from then on

	// entered / returned bracket every Do call; their difference is the
	// number of live callers.
	entered, returned atomic.Int64
	// Outcomes as the callers saw them.
	ok, shed, closed, ctxErr, poolErr atomic.Int64
}

func newModelRun(t *testing.T, m *vit.Model, sc *infer.ScoreCache, ref *modelRef, rng *rand.Rand) *modelRun {
	r := &modelRun{t: t, ref: ref, gate: make(chan struct{})}
	r.openGate = sync.OnceFunc(func() { close(r.gate) })
	r.cfg.MaxBatch = 1 + rng.Intn(4)
	r.cfg.QueueCap = r.cfg.MaxBatch + 1 + rng.Intn(8)
	if rng.Intn(2) == 0 {
		r.cfg.ShedLowDepth = 1 + rng.Intn(r.cfg.QueueCap)
	}
	if rng.Intn(2) == 0 {
		r.cfg.DegradeDepth = 1 + rng.Intn(r.cfg.QueueCap)
	}
	nrep := 1 + rng.Intn(3)
	r.inHookRep = make([]atomic.Int64, nrep)
	var pool []*Replica
	for i := 0; i < nrep; i++ {
		w := 1 + rng.Intn(2)
		eng, err := infer.NewEngine(m, infer.Config{MaxBatch: r.cfg.MaxBatch, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		rep := NewReplica(i, eng, sc)
		rep.AfterRun = func() { r.batchRunning(i) }
		pool = append(pool, rep)
		r.workers = append(r.workers, w)
		r.slots += w
	}
	s, err := NewServer(r.cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	r.s = s
	// Also on a failed run: no held batch or parked caller outlives it.
	t.Cleanup(func() {
		r.openGate()
		s.Close()
	})
	return r
}

// batchRunning is every replica's AfterRun: a batch is on a worker of
// replica i. Never more of them than workers, in the pool and per
// replica, before and after kills alike.
func (r *modelRun) batchRunning(i int) {
	if n := r.inHook.Add(1); n > int64(r.slots) {
		r.t.Errorf("%d batches running on %d replica workers", n, r.slots)
	}
	if n := r.inHookRep[i].Add(1); n > int64(r.workers[i]) {
		r.t.Errorf("%d batches running on replica %d's %d workers", n, i, r.workers[i])
	}
	<-r.gate
	runtime.Gosched()
	r.inHookRep[i].Add(-1)
	r.inHook.Add(-1)
}

func (r *modelRun) request(rng *rand.Rand) Request {
	return Request{
		Start:    rng.Intn(modelStarts),
		Steps:    1 + rng.Intn(modelSteps),
		Priority: Priority(rng.Intn(3)),
	}
}

// do is the one way the test calls Do: it brackets the call for the
// live-caller count, checks a reply against the sequential reference,
// and tallies the outcome.
func (r *modelRun) do(ctx context.Context, req Request) (*Response, error) {
	r.entered.Add(1)
	resp, err := r.s.Do(ctx, req)
	r.returned.Add(1)
	switch {
	case err == nil:
		r.ok.Add(1)
		r.checkReply(req, resp)
	case errors.Is(err, ErrOverloaded):
		r.shed.Add(1)
	case errors.Is(err, ErrClosed):
		r.closed.Add(1)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		r.ctxErr.Add(1)
		if ctx.Err() == nil {
			r.t.Errorf("request %+v: %v from a live context", req, err)
		}
	default:
		// A dead pool: only once replicas have been killed.
		r.poolErr.Add(1)
		if !r.killed.Load() {
			r.t.Errorf("request %+v: %v with every replica alive", req, err)
		}
	}
	return resp, err
}

func (r *modelRun) checkReply(req Request, resp *Response) {
	t := r.t
	if resp.Start != req.Start || resp.Steps != req.Steps {
		t.Errorf("request %+v answered as start %d steps %d", req, resp.Start, resp.Steps)
		return
	}
	if resp.Coalesced < 1 || resp.Coalesced > r.cfg.MaxBatch {
		t.Errorf("request %+v ran in a batch of %d, MaxBatch %d", req, resp.Coalesced, r.cfg.MaxBatch)
	}
	if resp.Degraded && (req.Priority == PriorityHigh || r.cfg.DegradeDepth == 0) {
		t.Errorf("request %+v served degraded", req)
	}
	if resp.Degraded {
		if resp.Scores != nil || !reflect.DeepEqual(resp.Means, r.ref.means[req.Start][:req.Steps]) {
			t.Errorf("degraded reply to %+v differs from the sequential reference", req)
		}
	} else if resp.Means != nil || !reflect.DeepEqual(resp.Scores, r.ref.scores[req.Start][:req.Steps]) {
		t.Errorf("reply to %+v differs from the sequential reference", req)
	}
}

// live is the number of callers inside Do right now, exact when no
// call is in transit.
func (r *modelRun) live() int { return int(r.entered.Load() - r.returned.Load()) }

// parked is an admitted call of the sequential phase.
type parked struct {
	cancel   context.CancelFunc
	degraded bool // what admission must have decided
	running  bool // took a worker on admission; otherwise it queued
	done     chan error
	resp     *Response
}

// sequentialPhase drives the server one operation at a time with every
// batch held on its worker, against a reference model of admission:
// each arrival is shed, admitted or admitted degraded exactly as the
// model says, each cancellation frees its slot before Do returns, and
// after every operation depth equals the number of live callers and
// every counter equals the model's.
func (r *modelRun) sequentialPhase(rng *rand.Rand) []*parked {
	t, s := r.t, r.s
	var calls []*parked // admitted and not yet canceled
	var want Stats      // the model's counters
	depth := 0
	check := func(op string) {
		t.Helper()
		st := s.Stats()
		got := Stats{Accepted: st.Accepted, Failed: st.Failed, ShedCapacity: st.ShedCapacity,
			ShedPriority: st.ShedPriority, DroppedExpired: st.DroppedExpired, Batches: st.Batches, QueueDepth: st.QueueDepth}
		want.QueueDepth = depth
		if got != want {
			t.Fatalf("after %s: server %+v, model %+v", op, got, want)
		}
		if depth != r.live() {
			t.Fatalf("after %s: depth %d, %d live callers", op, depth, r.live())
		}
	}
	for op := 0; op < 40; op++ {
		if len(calls) > 0 && rng.Intn(4) == 0 {
			// Cancel an admitted call: it is answered, and its slot free,
			// when Do returns.
			i := rng.Intn(len(calls))
			c := calls[i]
			calls = append(calls[:i], calls[i+1:]...)
			c.cancel()
			if err := <-c.done; !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled call returned %v", err)
			}
			depth--
			want.Failed++
			if !c.running {
				want.DroppedExpired++
			}
			check("cancel")
			continue
		}
		req := r.request(rng)
		ctx, cancel := context.WithCancel(context.Background())
		c := &parked{cancel: cancel, done: make(chan error, 1)}
		go func() {
			var err error
			c.resp, err = r.do(ctx, req)
			c.done <- err
		}()
		switch {
		case depth >= r.cfg.QueueCap:
			want.ShedCapacity++
		case req.Priority == PriorityLow && r.cfg.ShedLowDepth > 0 && depth >= r.cfg.ShedLowDepth:
			want.ShedPriority++
		default:
			c.degraded = r.cfg.DegradeDepth > 0 && depth >= r.cfg.DegradeDepth && req.Priority != PriorityHigh
			// Held batches never finish in this phase, so the first
			// `slots` admitted calls each took a worker, alone.
			c.running = int(want.Batches) < r.slots
			if c.running {
				want.Batches++
			}
			want.Accepted++
			depth++
			calls = append(calls, c)
			waitFor(t, "admission", func() bool { return s.Stats().Accepted == want.Accepted })
			check("admit")
			continue
		}
		select {
		case err := <-c.done:
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("arrival at depth %d (%+v): got %v, the model sheds it", depth, req, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("arrival at depth %d (%+v) was admitted, the model sheds it", depth, req)
		}
		cancel()
		check("shed")
	}
	return calls
}

// TestBatcherModel is the model-based test of the one queue → batch →
// replica state machine. Each seed draws a pool (1–3 replicas of 1–2
// workers) and a configuration, runs the sequential phase above, then
// opens the gate and lets seeded clients (plain, canceled, deadlined
// and already-expired requests of every priority), replica kills and a
// Close race each other, while an observer checks the bounds that must
// hold at every instant. At the end every call has been answered
// exactly once and the server's counters equal the callers' tallies.
func TestBatcherModel(t *testing.T) {
	m, sc := fixtureModel(t, 33)
	ref := newModelRef(t, m, sc)
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newModelRun(t, m, sc, ref, rng)
			s := r.s
			survivors := r.sequentialPhase(rng)

			// The concurrent phase.
			stop := make(chan struct{})
			var observer sync.WaitGroup
			observer.Add(1)
			go func() {
				defer observer.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Read returned before and entered after the depth:
					// both only grow, so the difference bounds the live
					// callers at the instant depth was read.
					returned := r.returned.Load()
					st := s.Stats()
					live := r.entered.Load() - returned
					if st.QueueDepth < 0 || int64(st.QueueDepth) > live || st.MaxQueueDepth > r.cfg.QueueCap {
						t.Errorf("depth %d (max %d, cap %d) with at most %d live callers", st.QueueDepth, st.MaxQueueDepth, r.cfg.QueueCap, live)
						return
					}
					runtime.Gosched()
				}
			}()

			const clients, perClient = 6, 40
			total := r.entered.Load() + clients*perClient
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				crng := rand.New(rand.NewSource(seed*1000 + int64(c)))
				go func() {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						ctx, cancel := context.Background(), context.CancelFunc(func() {})
						switch crng.Intn(4) {
						case 1: // canceled at some point of its life
							ctx, cancel = context.WithCancel(ctx)
							time.AfterFunc(time.Duration(crng.Intn(1000))*time.Microsecond, cancel)
						case 2: // a deadline it may or may not make
							ctx, cancel = context.WithTimeout(ctx, time.Duration(50+crng.Intn(2000))*time.Microsecond)
						case 3: // dead on arrival
							ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
						}
						if _, err := r.do(ctx, r.request(crng)); errors.Is(err, ErrOverloaded) {
							time.Sleep(100 * time.Microsecond) // back off, as a shed client would
						}
						cancel()
					}
				}()
			}
			r.openGate()

			var chaos sync.WaitGroup
			chaos.Add(2)
			kills := rng.Perm(len(s.replicas))[:rng.Intn(len(s.replicas)+1)] // none … all
			killAfter, closeAfter := rng.Intn(8000), 5000+rng.Intn(15000)
			go func() {
				defer chaos.Done()
				time.Sleep(time.Duration(killAfter) * time.Microsecond)
				for _, i := range kills {
					r.killed.Store(true)
					s.replicas[i].Kill()
					runtime.Gosched()
				}
			}()
			go func() {
				defer chaos.Done()
				time.Sleep(time.Duration(closeAfter) * time.Microsecond)
				s.Close()
				// Close returns only when every admitted call is answered.
				if st := s.Stats(); st.QueueDepth != 0 || st.Accepted != st.Completed+st.Failed {
					t.Errorf("after Close: %+v", st)
				}
			}()

			wg.Wait()
			for _, c := range survivors {
				switch err := <-c.done; {
				case err == nil && c.resp.Degraded != c.degraded:
					t.Errorf("call admitted with degraded=%v answered degraded=%v", c.degraded, c.resp.Degraded)
				case err != nil && !r.killed.Load():
					t.Errorf("admitted call failed with every replica alive: %v", err)
				}
				c.cancel()
			}
			chaos.Wait()
			close(stop)
			observer.Wait()
			if _, err := r.do(context.Background(), Request{Start: 0, Steps: 1}); !errors.Is(err, ErrClosed) {
				t.Errorf("Do after Close: %v", err)
			}
			total++

			// Every call answered exactly once, and the server's books
			// equal the callers'.
			st := s.Stats()
			ok, shed, closed, ctxErr, poolErr := r.ok.Load(), r.shed.Load(), r.closed.Load(), r.ctxErr.Load(), r.poolErr.Load()
			if r.entered.Load() != total || r.returned.Load() != total || ok+shed+closed+ctxErr+poolErr != total {
				t.Fatalf("%d calls: %d entered, %d returned, %d tallied", total, r.entered.Load(), r.returned.Load(), ok+shed+closed+ctxErr+poolErr)
			}
			// Contexts that were dead before admission are the only calls
			// neither admitted nor refused by the server.
			deadOnArrival := total - shed - closed - st.Accepted
			if st.QueueDepth != 0 || st.Accepted != st.Completed+st.Failed ||
				st.Completed != ok || // nothing was served after its caller had an error
				st.ShedCapacity+st.ShedPriority != shed ||
				deadOnArrival < 0 || st.Failed != ctxErr-deadOnArrival+poolErr ||
				r.inHook.Load() != 0 {
				t.Fatalf("books differ: server %+v; callers ok %d shed %d closed %d ctx %d pool %d of %d; %d batches still running",
					st, ok, shed, closed, ctxErr, poolErr, total, r.inHook.Load())
			}
		})
	}
}
