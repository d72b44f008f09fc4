package serve

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"orbit/internal/climate"
	"orbit/internal/infer"
	"orbit/internal/vit"
)

const (
	fixHeight = 8
	fixWidth  = 16
	fixDSLen  = 128
)

// fixtureModel builds the shared tiny full-state model and its score
// cache: 8 channels on an 8×16 grid, identity output mapping.
func fixtureModel(tb testing.TB, seed uint64) (*vit.Model, *infer.ScoreCache) {
	tb.Helper()
	vars := climate.RegistrySmall()
	w := climate.NewWorld(vars, fixHeight, fixWidth, climate.ERA5Source())
	stats := w.EstimateStats(8)
	ds := climate.NewDataset(w, stats, 0, fixDSLen, 2)
	m, err := vit.New(vit.Tiny(len(vars), fixHeight, fixWidth), seed)
	if err != nil {
		tb.Fatal(err)
	}
	return m, infer.NewScoreCache(ds, nil)
}

// newReplica builds one pool replica over the model, with one engine
// worker (a replica is one accelerator: one batch at a time), so a
// single held batch makes the replica busy at any GOMAXPROCS. tp == 0
// is a single-device engine; tp >= 2 shards the trunk over a simulated
// cluster (its own machine per replica, like a real pod).
func newReplica(tb testing.TB, id int, m *vit.Model, sc *infer.ScoreCache, maxBatch, tp int) *Replica {
	tb.Helper()
	eng, err := infer.NewEngine(m, infer.Config{MaxBatch: maxBatch, TP: tp, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return NewReplica(id, eng, sc)
}

// gate holds every batch that reaches its replica on the replica's
// worker (in AfterRun: forward done, results not yet delivered) until
// it is opened, so requests behind it queue deterministically.
type gate struct {
	held atomic.Int64 // batches that have reached the gate
	ch   chan struct{}
}

func gateReplica(r *Replica) *gate {
	g := &gate{ch: make(chan struct{})}
	r.AfterRun = func() {
		g.held.Add(1)
		<-g.ch
	}
	return g
}

func (g *gate) open() { close(g.ch) }

// waitFor polls an observable condition; tests wait on server state,
// never on elapsed time.
func waitFor(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	for end := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(end) {
			tb.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

type outcome struct {
	resp *Response
	err  error
}

// submit sends a request on its own goroutine and returns once the
// server has admitted it (depth reaches wantDepth).
func submit(tb testing.TB, s *Server, ctx context.Context, req Request, wantDepth int) <-chan outcome {
	tb.Helper()
	done := make(chan outcome, 1)
	go func() {
		r, err := s.Do(ctx, req)
		done <- outcome{r, err}
	}()
	waitFor(tb, "admission", func() bool { return s.Stats().QueueDepth >= wantDepth })
	return done
}

// plug sends one request per gated replica and waits until each is held
// at its gate: every worker of the pool is then busy, and what follows
// queues. Replicas are plugged in pool order (the round-robin order).
func plug(tb testing.TB, s *Server, gates ...*gate) []<-chan outcome {
	tb.Helper()
	var plugs []<-chan outcome
	for i, g := range gates {
		plugs = append(plugs, submit(tb, s, context.Background(), Request{Start: fixDSLen - 1 - i, Steps: 1}, i+1))
		waitFor(tb, "plug held at its gate", func() bool { return g.held.Load() == 1 })
	}
	return plugs
}

// TestServerServesAndCoalesces proves the happy path end to end: a
// request that finds the replica idle runs at once and alone, requests
// that arrive while it is busy coalesce into one fused batch — each
// rolled out for its own horizon — and every response is bit-identical
// to a direct engine rollout of the same sample.
func TestServerServesAndCoalesces(t *testing.T) {
	m, sc := fixtureModel(t, 21)
	rep := newReplica(t, 0, m, sc, 8, 0)
	g := gateReplica(rep)
	s, err := NewServer(Config{MaxBatch: 8}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	lone := plug(t, s, g)[0]
	const n = 8
	queued := make([]<-chan outcome, n)
	for i := range queued {
		queued[i] = submit(t, s, context.Background(), Request{Start: i, Steps: 1 + i%3}, 2+i)
	}
	if st := s.Stats(); st.Batches != 1 {
		t.Fatalf("requests behind a busy replica formed a batch early: %+v", st)
	}
	g.open()

	if o := <-lone; o.err != nil || o.resp.Coalesced != 1 {
		t.Fatalf("request to an idle replica: %+v, %v; want it served alone", o.resp, o.err)
	}
	ref, err := infer.NewEngine(m, infer.Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queued {
		o := <-q
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		r := o.resp
		if r.Degraded || r.Retries != 0 || r.Coalesced != n {
			t.Fatalf("request %d: %+v; want one undegraded batch of %d", i, r, n)
		}
		if want := ref.ScoredRollout(sc, i, 1+i%3); !reflect.DeepEqual(r.Scores, want) {
			t.Fatalf("request %d scores differ from direct rollout", i)
		}
	}
	st := s.Stats()
	if st.Accepted != n+1 || st.Completed != n+1 || st.Failed != 0 || st.Batches != 2 || st.QueueDepth != 0 {
		t.Fatalf("stats accounting wrong: %+v", st)
	}
}

// TestAdmissionCapacity proves the hard queue bound: with QueueCap
// callers waiting, every further request sheds with ErrOverloaded,
// every accepted request completes, and the queue never exceeds its
// capacity.
func TestAdmissionCapacity(t *testing.T) {
	m, sc := fixtureModel(t, 22)
	rep := newReplica(t, 0, m, sc, 4, 0)
	g := gateReplica(rep)
	s, err := NewServer(Config{MaxBatch: 4, QueueCap: 8}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	admitted := plug(t, s, g)
	for i := 1; i < 8; i++ {
		admitted = append(admitted, submit(t, s, context.Background(), Request{Start: i, Steps: 1}, i+1))
	}
	const extra = 56
	for i := 0; i < extra; i++ {
		if _, err := s.Do(context.Background(), Request{Start: i, Steps: 1}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("request %d against a full queue: got %v, want ErrOverloaded", i, err)
		}
	}
	g.open()
	for i, a := range admitted {
		if o := <-a; o.err != nil {
			t.Fatalf("admitted request %d: %v", i, o.err)
		}
	}
	st := s.Stats()
	if st.MaxQueueDepth != 8 || st.ShedCapacity != extra || st.Completed != 8 {
		t.Fatalf("capacity accounting: %+v", st)
	}
}

// closeWhileHeld starts Close, waits until admission is closed, and
// only then opens the gates: whatever is still queued at that point is
// served by the drain, not before it.
func closeWhileHeld(t *testing.T, s *Server, gates ...*gate) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, "admission to close", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	})
	if _, err := s.Do(context.Background(), Request{Start: 0, Steps: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do on a closing server: got %v, want ErrClosed", err)
	}
	for _, g := range gates {
		g.open()
	}
	<-closed
}

// TestPriorityShedding proves low-priority requests shed at the
// watermark while normal traffic is still admitted, and that Close
// drains what is queued.
func TestPriorityShedding(t *testing.T) {
	m, sc := fixtureModel(t, 23)
	rep := newReplica(t, 0, m, sc, 16, 0)
	g := gateReplica(rep)
	s, err := NewServer(Config{MaxBatch: 16, QueueCap: 8, ShedLowDepth: 2}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}

	d1 := plug(t, s, g)[0]
	d2 := submit(t, s, context.Background(), Request{Start: 1, Steps: 1}, 2)
	// Depth is now 2 — at the low watermark, below capacity.
	if _, err := s.Do(context.Background(), Request{Start: 2, Steps: 1, Priority: PriorityLow}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("low-priority request at watermark: got %v, want ErrOverloaded", err)
	}
	d3 := submit(t, s, context.Background(), Request{Start: 3, Steps: 1, Priority: PriorityNormal}, 3)
	if st := s.Stats(); st.ShedPriority != 1 {
		t.Fatalf("priority sheds = %d, want 1", st.ShedPriority)
	}
	closeWhileHeld(t, s, g)
	for i, d := range []<-chan outcome{d1, d2, d3} {
		if o := <-d; o.err != nil {
			t.Fatalf("queued request %d: %v", i, o.err)
		}
	}
	s.Close() // idempotent
}

// TestDegradedMode proves graceful degradation: above DegradeDepth,
// normal requests get raw rollouts (means, no scores) while
// high-priority requests keep full scoring — in the same fused batch.
func TestDegradedMode(t *testing.T) {
	m, sc := fixtureModel(t, 24)
	rep := newReplica(t, 0, m, sc, 16, 0)
	g := gateReplica(rep)
	s, err := NewServer(Config{MaxBatch: 16, QueueCap: 16, DegradeDepth: 1}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pending := []<-chan outcome{
		submit(t, s, context.Background(), Request{Start: 0, Steps: 2}, 1),                         // depth 0 at admission: full scoring
		submit(t, s, context.Background(), Request{Start: 1, Steps: 2}, 2),                         // depth 1: degraded
		submit(t, s, context.Background(), Request{Start: 2, Steps: 2, Priority: PriorityHigh}, 3), // high: never degraded
	}
	g.open()
	var results []*Response
	for i, p := range pending {
		o := <-p
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		results = append(results, o.resp)
	}
	if results[0].Degraded || results[0].Scores == nil {
		t.Fatalf("first request (empty queue) should be fully scored: %+v", results[0])
	}
	if !results[1].Degraded || results[1].Scores != nil || results[1].Coalesced != 2 {
		t.Fatalf("queued normal request should be degraded, batched with the high-priority one: %+v", results[1])
	}
	if len(results[1].Means) != 2 || len(results[1].Means[0]) != m.Config.OutChannels {
		t.Fatalf("degraded response means malformed: %v", results[1].Means)
	}
	if results[2].Degraded || results[2].Scores == nil {
		t.Fatalf("high-priority request must not degrade: %+v", results[2])
	}
	if st := s.Stats(); st.Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", st.Degraded)
	}
}

// TestFailoverMidBatchBitIdentical kills a single-device replica
// between its forward and the post-batch health check (the
// deterministic "mid-batch" hook) while it runs a full batch, and
// proves the batch retried on the surviving replica returns results
// bit-identical to a no-fault run — with no request lost.
func TestFailoverMidBatchBitIdentical(t *testing.T) {
	m, sc := fixtureModel(t, 25)
	repA := newReplica(t, 0, m, sc, 4, 0)
	repB := newReplica(t, 1, m, sc, 4, 0)
	gA, gB := gateReplica(repA), gateReplica(repB)
	holdA := repA.AfterRun
	var runsA atomic.Int64
	repA.AfterRun = func() {
		if runsA.Add(1) == 2 {
			repA.Kill() // the batch after the plug dies mid-flight
		}
		holdA()
	}
	s, err := NewServer(Config{MaxBatch: 4}, []*Replica{repA, repB})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	plugs := plug(t, s, gA, gB)
	const n = 4
	queued := make([]<-chan outcome, n)
	for i := range queued {
		queued[i] = submit(t, s, context.Background(), Request{Start: 10 + i, Steps: 1 + i%2}, 3+i)
	}
	// A's plug completes, A takes the four queued requests as one batch
	// and dies under it; they go back to the queue, and B takes them
	// once its plug is released.
	gA.open()
	waitFor(t, "replica A's batch to fail", func() bool { return s.Stats().ReplicaFailures == 1 })
	gB.open()

	for i, p := range plugs {
		if o := <-p; o.err != nil || o.resp.Retries != 0 {
			t.Fatalf("plug %d: %+v, %v", i, o.resp, o.err)
		}
	}
	ref, err := infer.NewEngine(m, infer.Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queued {
		o := <-q
		if o.err != nil {
			t.Fatalf("request %d lost across the failover: %v", i, o.err)
		}
		r := o.resp
		if r.Retries != 1 || r.Replica != repB.ID || r.Coalesced != n {
			t.Fatalf("request %d not failed over as one batch: %+v", i, r)
		}
		if want := ref.ScoredRollout(sc, 10+i, 1+i%2); !reflect.DeepEqual(r.Scores, want) {
			t.Fatalf("request %d: retried scores differ from the no-fault rollout", i)
		}
	}
	st := s.Stats()
	if st.ReplicaFailures != 1 || st.Retries != 1 {
		t.Fatalf("failover not recorded: %+v", st)
	}
	if st.HealthyReplicas != 1 {
		t.Fatalf("dead replica still reported healthy: %+v", st)
	}
	if repA.Healthy() {
		t.Fatal("killed replica reports healthy")
	}
}

// TestRequeuedCallExpires kills a replica under a batch of four and
// checks what happens to callers that give up around the failure: one
// that abandons its call while the batch runs is answered at once and
// not re-queued; one canceled, and one found past its deadline, while
// the failed batch waits in the queue are answered once with their
// context error, counted as dropped, and never reach a replica again.
// The live call is rerun alone on the surviving replica.
func TestRequeuedCallExpires(t *testing.T) {
	m, sc := fixtureModel(t, 31)
	repA := newReplica(t, 0, m, sc, 4, 0)
	repB := newReplica(t, 1, m, sc, 4, 0)
	gA, gB := gateReplica(repA), gateReplica(repB)
	holdA, failing := repA.AfterRun, make(chan struct{})
	var runsA atomic.Int64
	repA.AfterRun = func() {
		if runsA.Add(1) == 2 {
			repA.Kill() // the batch after the plug dies, held until failing closes
			<-failing
		}
		holdA()
	}
	s, err := NewServer(Config{MaxBatch: 4}, []*Replica{repA, repB})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	plug(t, s, gA, gB)
	abandonCtx, abandon := context.WithCancel(context.Background())
	cancelCtx, cancel := context.WithCancel(context.Background())
	stale := &staleCtx{Context: context.Background()}
	abandoned := submit(t, s, abandonCtx, Request{Start: 20, Steps: 1}, 3)
	canceled := submit(t, s, cancelCtx, Request{Start: 21, Steps: 1}, 4)
	expired := submit(t, s, stale, Request{Start: 22, Steps: 1}, 5)
	live := submit(t, s, context.Background(), Request{Start: 23, Steps: 2}, 6)

	gA.open()
	waitFor(t, "the four calls to run on replica A", func() bool { return runsA.Load() == 2 })
	abandon()
	if o := <-abandoned; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("call abandoned on the failing replica returned %+v, %v", o.resp, o.err)
	}
	close(failing)
	waitFor(t, "replica A's batch to fail", func() bool { return s.Stats().ReplicaFailures == 1 })
	cancel()
	if o := <-canceled; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("call canceled while re-queued returned %+v, %v", o.resp, o.err)
	}
	stale.expired.Store(true)
	gB.open()
	if o := <-expired; !errors.Is(o.err, context.DeadlineExceeded) {
		t.Fatalf("call expired while re-queued returned %+v, %v", o.resp, o.err)
	}
	o := <-live
	if o.err != nil || o.resp.Replica != repB.ID || o.resp.Retries != 1 || o.resp.Coalesced != 1 {
		t.Fatalf("live call: %+v, %v; want it rerun alone on replica %d after one failure", o.resp, o.err, repB.ID)
	}
	if gB.held.Load() != 2 {
		t.Fatalf("replica B ran %d batches, want its plug and the live call's", gB.held.Load())
	}
	st := s.Stats()
	if st.DroppedExpired != 2 || st.Failed != 3 || st.Completed != 3 || st.Batches != 4 ||
		st.Retries != 1 || st.QueueDepth != 0 || st.Accepted != st.Completed+st.Failed {
		t.Fatalf("stats after the re-queued expiries: %+v", st)
	}
}

// TestNoHealthyReplica proves pool exhaustion fails requests with a
// typed error instead of hanging or losing them.
func TestNoHealthyReplica(t *testing.T) {
	m, sc := fixtureModel(t, 26)
	rep := newReplica(t, 0, m, sc, 4, 0)
	rep.Kill()
	s, err := NewServer(Config{MaxBatch: 4}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Do(context.Background(), Request{Start: 0, Steps: 1}); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("got %v, want ErrNoHealthyReplica", err)
	}
	if st := s.Stats(); st.QueueDepth != 0 || st.Failed != 1 {
		t.Fatalf("failed request still holds a slot: %+v", st)
	}
}

// TestNewServerRejectsBadConfigs pins the configurations NewServer
// refuses: a negative setting, which would otherwise read as a default
// or as "never", and a batch wider than a replica engine's fused batch,
// which would run on several engine workers while holding one.
func TestNewServerRejectsBadConfigs(t *testing.T) {
	m, sc := fixtureModel(t, 32)
	pool := []*Replica{newReplica(t, 0, m, sc, 8, 0), newReplica(t, 1, m, sc, 4, 0)}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"MaxBatch above an engine's", Config{MaxBatch: 5}},
		{"negative MaxBatch", Config{MaxBatch: -1}},
		{"negative QueueCap", Config{QueueCap: -1}},
		{"negative MaxSteps", Config{MaxSteps: -1}},
		{"negative DegradeDepth", Config{DegradeDepth: -1}},
		{"negative ShedLowDepth", Config{ShedLowDepth: -1}},
	} {
		if _, err := NewServer(c.cfg, pool); err == nil {
			t.Errorf("%s: %+v accepted", c.name, c.cfg)
		}
	}
	if _, err := NewServer(Config{MaxBatch: 4}, pool); err != nil {
		t.Fatalf("MaxBatch equal to the narrowest engine's: %v", err)
	}
	s, err := NewServer(Config{}, pool)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := s.Config(); cfg.MaxBatch != 4 || cfg.QueueCap != 16 {
		t.Fatalf("defaults: %+v; want MaxBatch 4, QueueCap 16", cfg)
	}
}

// TestRequestValidation proves bad requests fail at admission with the
// typed error — never deep in the engine.
func TestRequestValidation(t *testing.T) {
	m, sc := fixtureModel(t, 27)
	rep := newReplica(t, 0, m, sc, 4, 0)
	s, err := NewServer(Config{MaxBatch: 4, MaxSteps: 10}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, req := range []Request{
		{Start: -1, Steps: 2},
		{Start: fixDSLen, Steps: 2},
		{Start: 0, Steps: 0},
		{Start: 0, Steps: 11}, // above MaxSteps
	} {
		var re *infer.RequestError
		if _, err := s.Do(context.Background(), req); !errors.As(err, &re) {
			t.Fatalf("request %+v: got %v, want *infer.RequestError", req, err)
		}
	}
}

// TestDeadlinePropagation proves a caller that stops waiting stops
// holding capacity, at once: (a) an expired context is rejected at
// admission; (b) a request canceled while queued is unlinked — its
// slot is free when Do returns — and one found expired at batch
// formation is dropped; neither reaches a replica; (c) a request
// abandoned while its batch is running leaves depth when Do returns
// and its late result is dropped, not counted.
func TestDeadlinePropagation(t *testing.T) {
	m, sc := fixtureModel(t, 28)
	rep := newReplica(t, 0, m, sc, 8, 0)
	g := gateReplica(rep)
	s, err := NewServer(Config{MaxBatch: 8, QueueCap: 16}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.Do(expired, Request{Start: 0, Steps: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context admitted: %v", err)
	}
	if st := s.Stats(); st.Accepted != 0 {
		t.Fatalf("expired context was admitted: %+v", st)
	}

	running, abandon := context.WithCancel(context.Background())
	held := submit(t, s, running, Request{Start: 0, Steps: 1}, 1)
	waitFor(t, "the first batch to be held", func() bool { return g.held.Load() == 1 })

	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	canceled := submit(t, s, queuedCtx, Request{Start: 1, Steps: 1}, 2)
	cancelQueued()
	if o := <-canceled; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("canceled request returned %v", o.err)
	}
	if st := s.Stats(); st.QueueDepth != 1 || st.DroppedExpired != 1 || st.Failed != 1 {
		t.Fatalf("canceled queued request still holds its slot: %+v", st)
	}

	// A caller that is slow to notice its own deadline: Err reports it,
	// Done has not fired yet. Batch formation must drop the call.
	stale := &staleCtx{Context: context.Background()}
	staleDone := submit(t, s, stale, Request{Start: 2, Steps: 1}, 2)
	stale.expired.Store(true)

	live := submit(t, s, context.Background(), Request{Start: 3, Steps: 1}, 3)
	abandon()
	if o := <-held; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("request abandoned mid-batch returned %v", o.err)
	}
	if st := s.Stats(); st.QueueDepth != 2 || st.Failed != 2 {
		t.Fatalf("abandoned running request still holds its slot: %+v", st)
	}

	g.open()
	if o := <-staleDone; !errors.Is(o.err, context.DeadlineExceeded) {
		t.Fatalf("request past its deadline at batch formation returned %v", o.err)
	}
	if o := <-live; o.err != nil || o.resp.Coalesced != 1 {
		t.Fatalf("live request: %+v, %v; want it served alone (dropped members take no batch slot)", o.resp, o.err)
	}
	st := s.Stats()
	if st.Batches != 2 || st.Completed != 1 || st.Failed != 3 || st.DroppedExpired != 2 || st.QueueDepth != 0 {
		t.Fatalf("late result of an abandoned call was counted, or a dropped call ran: %+v", st)
	}
}

// staleCtx is a context whose deadline has passed (once expired is set)
// without its Done channel having fired.
type staleCtx struct {
	context.Context
	expired atomic.Bool
}

func (c *staleCtx) Err() error {
	if c.expired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

// TestParsePriority pins the wire names.
func TestParsePriority(t *testing.T) {
	for s, want := range map[string]Priority{
		"": PriorityNormal, "normal": PriorityNormal,
		"low": PriorityLow, "high": PriorityHigh,
	} {
		got, err := ParsePriority(s)
		if err != nil || got != want {
			t.Fatalf("ParsePriority(%q) = %v, %v", s, got, err)
		}
		if got.String() == "" {
			t.Fatalf("priority %v has no name", got)
		}
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Fatal("unknown priority accepted")
	}
}

// TestHistogramQuantiles pins the log₂ histogram's conservative
// quantile semantics.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	if h.quantile(0.99) != 0 {
		t.Fatal("empty histogram should report 0")
	}
	for i := 0; i < 99; i++ {
		h.observe(3 * time.Microsecond) // bucket [2,4)µs → reports 4µs
	}
	h.observe(3 * time.Millisecond) // tail: bucket upper bound 4096µs
	h.observe(3 * time.Millisecond)
	if got := h.quantile(0.50); got != 4*time.Microsecond {
		t.Fatalf("p50 = %v, want 4µs upper bound", got)
	}
	if got := h.quantile(0.99); got < 3*time.Millisecond {
		t.Fatalf("p99 = %v must cover the tail observation", got)
	}
}
