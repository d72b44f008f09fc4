package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOverloadShedsAndBoundsLatency is the acceptance drill, in
// discrete time so that a stalled host cannot fail it: the replica
// serves one batch per tick of the test's clock, and 2·MaxBatch
// requests arrive per tick — 2× the service capacity by construction,
// for forty ticks. Admission control must shed (429s at the HTTP
// layer), the queue must never exceed its capacity, every accepted
// request must complete, the server must stay work-conserving (a full
// batch per tick once saturated), and no accepted request may wait
// longer than the queue takes to drain — QueueCap/MaxBatch ticks and
// one for the batch in flight — however long the overload lasts. An
// unprotected server under the same load would queue without limit
// and its latency would grow with the test length.
func TestOverloadShedsAndBoundsLatency(t *testing.T) {
	m, sc := fixtureModel(t, 31)
	rep := newReplica(t, 0, m, sc, 4, 0)
	var held atomic.Int64 // batches that have reached the hook
	tick := make(chan struct{})
	rep.AfterRun = func() {
		held.Add(1)
		<-tick
	}
	cfg := Config{MaxBatch: 4, QueueCap: 8}
	s, err := NewServer(cfg, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(tick) })
	defer func() {
		release() // also on a failed run: nothing stays held
		s.Close()
	}()

	const ticks = 40
	offered := ticks * 2 * cfg.MaxBatch
	var now, recorded atomic.Int64 // the clock; callers that have noted their outcome
	type outcome struct {
		err    error
		waited int64 // ticks from arrival to answer
	}
	outcomes := make(chan outcome, offered)
	issued := 0
	for tk := 0; tk < ticks; tk++ {
		for i := 0; i < 2*cfg.MaxBatch; i++ {
			issued++
			go func(start int, at int64) {
				_, err := s.Do(context.Background(), Request{Start: start % fixDSLen, Steps: 1})
				outcomes <- outcome{err, now.Load() - at}
				recorded.Add(1)
			}(issued, now.Load())
			waitFor(t, "the arrival to be admitted or shed", func() bool {
				st := s.Stats()
				return st.Accepted+st.ShedCapacity == int64(issued)
			})
		}
		// One tick of service: release the held batch, then wait until its
		// callers have noted their answers and the next batch is held.
		before := s.Stats()
		tick <- struct{}{}
		waitFor(t, "one batch to be served and the next to start", func() bool {
			st := s.Stats()
			return st.Completed > before.Completed && recorded.Load() == st.Completed+st.ShedCapacity &&
				(st.QueueDepth == 0 || st.Batches > before.Batches && held.Load() == st.Batches)
		})
		now.Add(1)
	}
	release() // drain what is still queued

	var served, shed int64
	for i := 0; i < offered; i++ {
		switch o := <-outcomes; {
		case o.err == nil:
			served++
			if bound := int64(cfg.QueueCap/cfg.MaxBatch + 1); o.waited > bound {
				t.Fatalf("an accepted request waited %d ticks, the queue drains in %d", o.waited, bound)
			}
		case errors.Is(o.err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("accepted request failed under overload: %v", o.err)
		}
	}
	st := s.Stats()
	if shed == 0 || served+shed != int64(offered) || st.ShedCapacity != shed || st.Completed != served {
		t.Fatalf("%d offered at 2× capacity: %d served + %d shed; stats %+v", offered, served, shed, st)
	}
	if served < int64((ticks-1)*cfg.MaxBatch) {
		t.Fatalf("served %d in %d ticks: not a full batch of %d per tick under overload", served, ticks, cfg.MaxBatch)
	}
	if st.MaxQueueDepth > cfg.QueueCap {
		t.Fatalf("queue depth %d exceeded capacity %d", st.MaxQueueDepth, cfg.QueueCap)
	}
}
