package serve

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// sweepPoint is one offered-load measurement in BENCH_PR6.json.
type sweepPoint struct {
	Multiple      float64 `json:"multiple_of_saturation"`
	OfferedRPS    float64 `json:"offered_rps"`
	Offered       int     `json:"offered"`
	Served        int64   `json:"served"`
	Shed          int64   `json:"shed"`
	ShedRate      float64 `json:"shed_rate"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxQueueDepth int     `json:"max_queue_depth"`
}

type benchReport struct {
	Bench  string `json:"bench"`
	Config struct {
		Replicas     int     `json:"replicas"`
		MaxBatch     int     `json:"max_batch"`
		QueueCap     int     `json:"queue_cap"`
		BatchCostMs  float64 `json:"pinned_batch_cost_ms"`
		SweepSeconds float64 `json:"seconds_per_point"`
	} `json:"config"`
	SaturationRPS float64      `json:"saturation_rps"`
	Sweep         []sweepPoint `json:"sweep"`
	// Unprotected2x drives the same server with the admission bound
	// removed at the same 2× offered load: nothing sheds, so the queue —
	// and the latency of every request — grows with the length of the
	// overload.
	Unprotected2x struct {
		OfferedRPS float64 `json:"offered_rps"`
		Served     int64   `json:"served"`
		P50Ms      float64 `json:"p50_ms"`
		P99Ms      float64 `json:"p99_ms"`
	} `json:"unprotected_2x"`
}

// percentile returns the p-th percentile of ds (exact, client-side).
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// TestLoadSweep is the PR 6 load test: it sweeps offered load over a
// two-replica pool at 0.5×/1×/2× the measured saturation throughput
// and records p50/p99, shed rate, and queue depth per point, plus an
// unprotected (no admission control) baseline at 2×. Gated on
// ORBIT_BENCH_PR6=<output path> because it runs for several seconds by
// design; it produced BENCH_PR6.json.
func TestLoadSweep(t *testing.T) {
	out := os.Getenv("ORBIT_BENCH_PR6")
	if out == "" {
		t.Skip("load sweep disabled; set ORBIT_BENCH_PR6=<output.json>")
	}

	const (
		maxBatch  = 8
		queueCap  = 32
		batchCost = 2 * time.Millisecond
		window    = 2 * time.Second
	)
	m, sc := fixtureModel(t, 40)
	replicas := []*Replica{
		newReplica(t, 0, m, sc, maxBatch, 0),
		newReplica(t, 1, m, sc, maxBatch, 0),
	}
	// Warm the score cache and pin a realistic per-batch service cost —
	// the fixture model alone is faster than open-loop timer resolution.
	for i := 0; i < fixDSLen; i++ {
		replicas[0].Engine.ScoredRollout(sc, i, 1)
	}
	// The cost serializes per replica (one engine worker: a replica is
	// one accelerator, one batch at a time), so pool capacity is
	// replicas×MaxBatch/batchCost no matter how deep the queue — queueing
	// buys latency, not throughput, exactly as on real hardware.
	for _, r := range replicas {
		r.AfterRun = func() { time.Sleep(batchCost) }
	}
	cfg := Config{MaxBatch: maxBatch, QueueCap: queueCap}

	var report benchReport
	report.Bench = "pr6_serving_resilience_load_sweep"
	report.Config.Replicas = len(replicas)
	report.Config.MaxBatch = maxBatch
	report.Config.QueueCap = queueCap
	report.Config.BatchCostMs = float64(batchCost) / float64(time.Millisecond)
	report.Config.SweepSeconds = window.Seconds()

	// Saturation: closed-loop throughput with exactly QueueCap workers —
	// the queue stays full, nothing sheds, and the serialized per-replica
	// cost means extra arrival pressure could not serve faster. The
	// analytic ceiling is replicas × MaxBatch per batchCost.
	analytic := float64(len(replicas)*maxBatch) / batchCost.Seconds()
	sat, err := NewServer(cfg, replicas)
	if err != nil {
		t.Fatal(err)
	}
	report.SaturationRPS = measureSaturation(t, sat, queueCap, window/2)
	sat.Close()
	t.Logf("saturation: %.0f rps (analytic ceiling %.0f)", report.SaturationRPS, analytic)

	for _, mult := range []float64{0.5, 1.0, 2.0} {
		s, err := NewServer(cfg, replicas)
		if err != nil {
			t.Fatal(err)
		}
		rps := mult * report.SaturationRPS
		n := int(rps * window.Seconds())
		served, shed, failed, lats := offerLoad(t, rps, n, func(ctx context.Context, r Request) error {
			_, err := s.Do(ctx, r)
			return err
		})
		if failed != 0 {
			t.Fatalf("%.1fx: %d accepted requests failed", mult, failed)
		}
		st := s.Stats()
		s.Close()
		if served+shed != int64(n) {
			t.Fatalf("%.1fx: requests lost: %d served + %d shed != %d", mult, served, shed, n)
		}
		report.Sweep = append(report.Sweep, sweepPoint{
			Multiple:      mult,
			OfferedRPS:    rps,
			Offered:       n,
			Served:        served,
			Shed:          shed,
			ShedRate:      float64(shed) / float64(n),
			P50Ms:         percentile(lats, 0.50),
			P99Ms:         percentile(lats, 0.99),
			MaxQueueDepth: st.MaxQueueDepth,
		})
		t.Logf("%.1fx (%.0f rps): served %d, shed %d (%.0f%%), p50 %.1fms, p99 %.1fms, depth %d",
			mult, rps, served, shed, 100*float64(shed)/float64(n),
			report.Sweep[len(report.Sweep)-1].P50Ms, report.Sweep[len(report.Sweep)-1].P99Ms, st.MaxQueueDepth)
	}

	// Unprotected baseline: the identical stack with the admission bound
	// removed (an effectively unbounded queue). Nothing sheds, so the
	// backlog — and the latency of every request behind it — grows for
	// as long as the overload lasts. Shorter window: the run time grows
	// with the backlog too.
	cfgU := cfg
	cfgU.QueueCap = 1 << 30
	u, err := NewServer(cfgU, replicas)
	if err != nil {
		t.Fatal(err)
	}
	rps := 2 * report.SaturationRPS
	n := int(rps * (window / 2).Seconds())
	servedU, shedU, failedU, latsU := offerLoad(t, rps, n, func(ctx context.Context, r Request) error {
		_, err := u.Do(ctx, r)
		return err
	})
	u.Close()
	if shedU != 0 || failedU != 0 {
		t.Fatalf("unprotected run shed %d / failed %d of %d — it must serve everything", shedU, failedU, n)
	}
	report.Unprotected2x.OfferedRPS = rps
	report.Unprotected2x.Served = servedU
	report.Unprotected2x.P50Ms = percentile(latsU, 0.50)
	report.Unprotected2x.P99Ms = percentile(latsU, 0.99)
	t.Logf("unprotected 2x: served %d, p50 %.1fms, p99 %.1fms",
		servedU, report.Unprotected2x.P50Ms, report.Unprotected2x.P99Ms)

	f, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(f, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
