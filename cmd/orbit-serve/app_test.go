package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	orbit "orbit"
)

// TestStatusFor pins the error→HTTP mapping: 400 invalid, 429 shed,
// 504 deadline, 503 closed/exhausted.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{&orbit.RolloutRequestError{Start: -1, Reason: "x"}, http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", &orbit.RolloutRequestError{}), http.StatusBadRequest},
		{orbit.ErrServerOverloaded, http.StatusTooManyRequests},
		{fmt.Errorf("wrapped: %w", orbit.ErrServerOverloaded), http.StatusTooManyRequests},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusGatewayTimeout},
		{orbit.ErrServerClosed, http.StatusServiceUnavailable},
		{orbit.ErrNoHealthyReplica, http.StatusServiceUnavailable},
		{errors.New("anything else"), http.StatusServiceUnavailable},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestRetryAfterSeconds pins the 429 Retry-After derivation: one
// queue drain rounded up to whole seconds, clamped to [1, 60], with a
// 1-second fallback when the drain rate is unknown.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		depth   int
		perSec  float64
		want    int
		comment string
	}{
		{0, 10, 1, "empty queue still answers at least 1"},
		{5, 0, 1, "unknown rate falls back to 1"},
		{5, -3, 1, "negative rate falls back to 1"},
		{10, 10, 1, "exactly one second"},
		{11, 10, 2, "partial seconds round up"},
		{100, 10, 10, "ten-second drain"},
		{100000, 10, 60, "clamped at 60"},
		{3, 1000, 1, "sub-second drains clamp up to 1"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.depth, c.perSec); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %g) = %d, want %d (%s)", c.depth, c.perSec, got, c.want, c.comment)
		}
	}
}

// TestDrainEstimator drives the app's drain-rate tracker with
// synthetic completion samples: the first sample only anchors, steady
// throughput converges to the true rate, too-close or no-progress
// samples are ignored, and a throughput change moves the EWMA toward
// the new rate without snapping.
func TestDrainEstimator(t *testing.T) {
	a := &app{} // the estimator is exercised exactly as the handler holds it
	t0 := time.Now()
	a.drain.observe(t0, 0)
	if r := a.drain.rate(); r != 0 {
		t.Fatalf("rate known after a single anchor sample: %g", r)
	}
	// 100 completions over 1s → 100/s.
	a.drain.observe(t0.Add(1*time.Second), 100)
	if r := a.drain.rate(); r != 100 {
		t.Fatalf("first measured rate %g, want 100", r)
	}
	// A sample inside the minimum gap must not perturb the estimate.
	a.drain.observe(t0.Add(1*time.Second+time.Millisecond), 101)
	if r := a.drain.rate(); r != 100 {
		t.Fatalf("sub-gap sample moved the rate to %g", r)
	}
	// No progress (overload, nothing completing) must not zero it.
	a.drain.observe(t0.Add(1500*time.Millisecond), 100)
	if r := a.drain.rate(); r != 100 {
		t.Fatalf("zero-progress sample moved the rate to %g", r)
	}
	// Throughput halves: the EWMA moves toward 50 but remembers 100.
	a.drain.observe(t0.Add(2*time.Second), 150)
	r := a.drain.rate()
	if !(r > 50 && r < 100) {
		t.Fatalf("EWMA after slowdown = %g, want between 50 and 100", r)
	}
}

// postForecast sends one forecast request and decodes the reply.
func postForecast(t *testing.T, base string, body string) (int, map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/v1/forecast", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST /v1/forecast: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	return resp.StatusCode, m, resp.Header
}

// TestNewAppRejectsBadFlags: a pool needs a replica, and a negative
// serving setting is an error, not a silent default.
func TestNewAppRejectsBadFlags(t *testing.T) {
	for _, opts := range []options{
		{trainSteps: 1, replicas: 0},
		{trainSteps: 1, replicas: -2},
		{trainSteps: 1, replicas: 1, queueCap: -1},
	} {
		if _, err := newApp(opts); err == nil {
			t.Errorf("newApp(%+v) accepted", opts)
		}
	}
}

// TestServeQuantized boots the server with -quantize q4: the demo
// model is block-quantized in memory, /v1/model reports the format,
// and forecasts serve through the dequant-fused kernels end to end.
func TestServeQuantized(t *testing.T) {
	a, err := newApp(options{
		addr:       "127.0.0.1:0",
		trainSteps: 1,
		maxBatch:   2,
		stepsCap:   4,
		replicas:   1,
		quantize:   "q4",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.listen(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + a.ln.Addr().String()
	runErr := make(chan error, 1)
	go func() { runErr <- a.run() }()

	resp, err := http.Get(base + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var info map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info["quantize"] != "q4" {
		t.Fatalf("/v1/model reports quantize=%v, want q4", info["quantize"])
	}

	code, m, _ := postForecast(t, base, `{"start": 0, "steps": 2}`)
	if code != http.StatusOK {
		t.Fatalf("quantized forecast: got %d (%v), want 200", code, m)
	}
	if _, ok := m["scores"]; !ok {
		t.Fatalf("quantized forecast reply lacks scores: %v", m)
	}

	a.shutdown()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not exit after shutdown")
	}
}

// TestServeDrainAndOverload boots the full server on a loopback port
// and drives it end to end: validation (400), deadline expiry (504)
// that gives its queue slot straight back, overload shedding (429 with
// Retry-After), and — the graceful shutdown satellite — SIGTERM while
// requests are queued behind busy replicas, which must drain them with
// real responses before the process exits.
func TestServeDrainAndOverload(t *testing.T) {
	// Every batch that reaches a replica is held on its worker until the
	// test releases it, so the queue state below is exact, not timed.
	const replicas, queued = 2, 2
	workers := replicas * runtime.GOMAXPROCS(0) // an engine plans one worker per P
	a, err := newApp(options{
		addr:       "127.0.0.1:0",
		trainSteps: 1, // model quality is irrelevant here
		maxBatch:   4,
		stepsCap:   8,
		replicas:   replicas,
		queueCap:   workers + queued,
	})
	if err != nil {
		t.Fatal(err)
	}
	var held atomic.Int64
	release := make(chan struct{})
	for _, r := range a.pool {
		r.AfterRun = func() {
			held.Add(1)
			<-release
		}
	}
	if err := a.listen(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + a.ln.Addr().String()
	runErr := make(chan error, 1)
	go func() { runErr <- a.run() }()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for end := time.Now().Add(20 * time.Second); !cond(); {
			if time.Now().After(end) {
				t.Fatalf("timed out waiting for %s: %+v", what, a.fs.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Liveness and config surfaces.
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
	var st orbit.ServeStats
	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
	if st.QueueCap != workers+queued || st.Replicas != 2 || st.HealthyReplicas != 2 {
		t.Fatalf("stats misreport the pool: %+v", st)
	}

	// Validation: typed 400s before any batch slot is touched.
	for _, body := range []string{
		`{"start": 0, "steps": 0}`,
		`{"start": -1, "steps": 1}`,
		`{"start": 0, "steps": 999}`, // above steps-cap
		`{"start": 0, "steps": 1, "priority": "urgent"}`,
		`not json`,
	} {
		if code, m, _ := postForecast(t, base, body); code != http.StatusBadRequest {
			t.Fatalf("body %s: got %d (%v), want 400", body, code, m)
		}
	}

	// Occupy every replica worker, one request (one held batch) each.
	answered := make(chan int, workers+queued)
	post := func(i int) {
		go func() {
			code, _, _ := postForecast(t, base, fmt.Sprintf(`{"start": %d, "steps": 1}`, i))
			answered <- code
		}()
	}
	for i := 0; i < workers; i++ {
		post(i)
		waitFor("a batch per worker", func() bool { return held.Load() == int64(i+1) })
	}

	// Deadline expiry: a 1ms budget behind busy replicas answers 504,
	// and the slot it held is free again when the answer arrives.
	if code, m, _ := postForecast(t, base, `{"start": 0, "steps": 1, "deadline_ms": 1}`); code != http.StatusGatewayTimeout {
		t.Fatalf("deadline request: got %d (%v), want 504", code, m)
	}
	if st := a.fs.Stats(); st.QueueDepth != workers {
		t.Fatalf("expired request still holds a queue slot: %+v", st)
	}

	// Fill the queue to its cap; these can only be answered by the drain.
	for i := 0; i < queued; i++ {
		post(workers + i)
		waitFor("admission", func() bool { return a.fs.Stats().QueueDepth == workers+i+1 })
	}

	// Overload: the queue is at capacity, so the next request sheds.
	code, m, hdr := postForecast(t, base, `{"start": 5, "steps": 1}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload request: got %d (%v), want 429", code, m)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 reply missing Retry-After")
	}

	// Graceful shutdown: SIGTERM closes admission (503 instead of 429)
	// with two requests still queued; once the replicas are released the
	// drain must answer every admitted request 200, and run() must return
	// cleanly.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor("admission to close", func() bool {
		code, _, _ := postForecast(t, base, `{"start": 6, "steps": 1}`)
		return code == http.StatusServiceUnavailable
	})
	if st := a.fs.Stats(); st.QueueDepth != workers+queued || st.Completed != 0 {
		t.Fatalf("queued requests not waiting for the drain: %+v", st)
	}
	close(release)
	for i := 0; i < workers+queued; i++ {
		select {
		case code := <-answered:
			if code != http.StatusOK {
				t.Fatalf("admitted request dropped with %d during drain", code)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("admitted request never answered: drain lost it")
		}
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}
