package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// measureSaturation drives the server closed-loop with enough workers
// to keep the queue full and returns the achieved throughput in
// requests/second — the saturation point of this replica pool on this
// machine (race detector and all), so overload multiples computed from
// it are machine-independent.
func measureSaturation(tb testing.TB, s *Server, workers int, window time.Duration) float64 {
	tb.Helper()
	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := s.Do(context.Background(), Request{Start: (w*31 + i) % fixDSLen, Steps: 1})
				if err == nil {
					served.Add(1)
				}
			}
		}(w)
	}
	start := time.Now()
	time.Sleep(window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return float64(served.Load()) / elapsed
}

// offerLoad offers open-loop arrivals at rps (arrivals do not wait for
// completions — what makes overload possible) until n requests have
// been issued, classifying outcomes and recording served latencies.
// Arrivals spawn in 1ms groups so the offered rate holds even when it
// outruns per-request timer resolution.
func offerLoad(tb testing.TB, rps float64, n int, do func(ctx context.Context, req Request) error) (served, shed, failed int64, lats []time.Duration) {
	tb.Helper()
	var servedN, shedN, failedN atomic.Int64
	var failOnce sync.Once
	var latMu sync.Mutex
	var wg sync.WaitGroup
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	perTick := rps / 1000
	acc := 0.0
	for launched := 0; launched < n; {
		<-tick.C
		acc += perTick
		k := int(acc)
		acc -= float64(k)
		for j := 0; j < k && launched < n; j++ {
			i := launched
			launched++
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := time.Now()
				err := do(context.Background(), Request{Start: i % fixDSLen, Steps: 1})
				d := time.Since(t0)
				switch {
				case err == nil:
					servedN.Add(1)
					latMu.Lock()
					lats = append(lats, d)
					latMu.Unlock()
				case errors.Is(err, ErrOverloaded):
					shedN.Add(1)
				default:
					failedN.Add(1)
					failOnce.Do(func() { tb.Logf("offerLoad: request %d failed: %v", i, err) })
				}
			}(i)
		}
	}
	wg.Wait()
	return servedN.Load(), shedN.Load(), failedN.Load(), lats
}

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
