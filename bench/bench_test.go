package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"orbit/internal/tensor"
)

// benchmarkJSON mirrors the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// program emits from: same workloads, same metrics, units, directions
// and bounds, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) || len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	for i, d := range endToEnd {
		if g := bj.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if g := bj.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
		if seen[d.Name] || !nameRE.MatchString(d.Name) {
			t.Errorf("per-layer name %q is repeated or malformed", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at a thirtieth of
// its scale, traced (a traced run holds an untraced arm, so one run
// yields both kinds), and checks that it passes its own correctness
// checks and emits every metric BENCHMARK.json lists. There are no
// timing assertions.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	defer func(s, w, v, p, r int, b time.Duration) {
		setupTrials, trainWarmSteps, trainVerifySteps, srvPool, replayRounds, replayBatch = s, w, v, p, r, b
	}(setupTrials, trainWarmSteps, trainVerifySteps, srvPool, replayRounds, replayBatch)
	setupTrials, trainWarmSteps, trainVerifySteps, srvPool, replayRounds, replayBatch = 1, 2, 3, 32, 3, 200*time.Microsecond

	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := measure(w, 5, float64(bj.RunSeconds)/30, true, "", t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			e2e, problems, err := rep.result(false)
			if err != nil {
				t.Fatal(err)
			}
			layers, more, _ := rep.result(true)
			for _, p := range append(problems, more...) {
				t.Error(p)
			}
			if e2e.Attempted < 1 || e2e.Failed != 0 {
				t.Errorf("attempted %d, failed %d", e2e.Attempted, e2e.Failed)
			}
			for _, d := range bj.EndToEnd {
				if m, ok := e2e.Metrics[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v (present %v), want a positive value", d.Name, m, ok)
				}
			}
			for _, d := range bj.PerLayer {
				if m, ok := layers.Metrics[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer metric %s = %+v (present %v)", d.Name, m, ok)
				}
			}
			if layers.Metrics["trace.overhead_pct"].Value == 0 {
				t.Error("trace.overhead_pct not reported")
			}
		})
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 2, 8, 4, 6, 10}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if p := percentile(xs, 0.9); math.Abs(p-9.1) > 1e-12 {
		t.Errorf("p90 = %v, want 9.1", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("percentile of nothing = %v, want 0", p)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if s := spread(xs); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

// TestQuartilesMatchPython: below four values statistics.quantiles
// extrapolates past the data; two record sets are the -compare case.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64 // statistics.quantiles(xs, n=4)[0], [2]
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 4}, 1, 4},
		{[]float64{1, 2, 4, 8}, 1.25, 7},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2}); s != 1 {
		t.Errorf("spread of two values = %v, want (2.25-0.75)/1.5 = 1", s)
	}
}

// TestAtShare: an op that is all arithmetic converts by the plain
// ratio, one that only waits is left alone, and a half-and-half op
// that took 3 ms beside a reference twice as slow took 2 at nominal
// speed (1 waiting + 1 computing, against 1 + 2).
func TestAtShare(t *testing.T) {
	slow := 2 * refNominalMs
	for _, c := range []struct{ share, want float64 }{{1, 1.5}, {0, 3}, {0.5, 2}} {
		if got := atShare(3, slow, c.share); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("atShare(3 ms, reference ×2, share %v) = %v, want %v", c.share, got, c.want)
		}
	}
	if got := atShare(3, refNominalMs, 0.7); got != 3 {
		t.Errorf("at nominal speed a time must not move, got %v", got)
	}
}

// TestOpenLoopCountsFromDueTime: a request that was due 30 ms ago is
// sent at once, reports its lag, and is charged the lag as latency
// even though the system answered instantly; a slow reply does not
// delay the next send.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	dues := []time.Duration{-30 * time.Millisecond, 0, 5 * time.Millisecond}
	got := openLoop(dues, func(i int, _ time.Time) {
		if i == 1 {
			time.Sleep(60 * time.Millisecond)
		}
	})
	if got[0].lagMs() < 30 || got[0].latencyMs() < got[0].lagMs() {
		t.Errorf("late request: lag %.1f ms, latency %.1f ms; want both ≥ 30", got[0].lagMs(), got[0].latencyMs())
	}
	if got[1].latencyMs() < 60 {
		t.Errorf("slow request: latency %.1f ms, want ≥ 60", got[1].latencyMs())
	}
	if got[2].lagMs() > 40 || got[2].latencyMs() > 40 {
		t.Errorf("request behind a slow one: lag %.1f ms, latency %.1f ms; the open loop must not wait for replies", got[2].lagMs(), got[2].latencyMs())
	}
}

func TestPoissonIsSeededAndAtRate(t *testing.T) {
	a := poisson(tensor.NewRNG(3), 500, 4*time.Second)
	b := poisson(tensor.NewRNG(3), 500, 4*time.Second)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("the same seed gave two different arrival streams")
	}
	if n := float64(len(a)); math.Abs(n-2000) > 200 {
		t.Errorf("%v arrivals in 4 s at 500/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("due times are not ascending")
		}
	}
}

// TestScheduleIdleShare: 1F1B over 2 stages and 4 micro-batches at
// forward 1 / backward 2 has a makespan of 15 units for 12 of work per
// stage; a single stage is never idle.
func TestScheduleIdleShare(t *testing.T) {
	if got, err := scheduleIdleShare(2, 4); err != nil || math.Abs(got-0.2) > 1e-12 {
		t.Errorf("idle share = %v, %v; want 0.2", got, err)
	}
	if got, err := scheduleIdleShare(1, 4); err != nil || got != 0 {
		t.Errorf("single stage idle share = %v, %v; want 0", got, err)
	}
}

// planSet is one set of runs holding one workload, with the given
// op_p50_ms, planner calibration error and served share. (plan_query
// reports no serve.ok_share; -compare judges by table, not by workload.)
func planSet(procs int, p50, calib, okShare float64) set {
	return set{Workloads: map[string]workloadRecord{"plan_query": {
		Gomaxprocs: procs,
		EndToEnd:   result{Metrics: map[string]metric{"op_p50_ms": {p50, "ms"}}},
		PerLayer: result{Metrics: map[string]metric{"plan.calib_err_pct": {calib, "%"}, "plan.enumerate_ms": {p50 / 7, "ms"},
			"serve.ok_share": {okShare, "share"}}},
	}}}
}

func writeSet(t *testing.T, seconds float64, sets ...set) string {
	t.Helper()
	b, err := json.Marshal(recordSet{Nproc: 2, Seconds: seconds, Sets: sets})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	bound := 0.0
	for _, d := range endToEnd {
		if d.Name == "op_p50_ms" {
			bound = d.Bound
		}
	}
	base := writeSet(t, 10, planSet(1, 100, 0, 1))
	var out strings.Builder
	if err := compareSets(&out, base, writeSet(t, 10, planSet(1, 100*(1+bound/2), 0, 0.99))); err != nil {
		t.Errorf("half the bound slower was flagged: %v", err)
	}
	if err := compareSets(&out, base, writeSet(t, 10, planSet(1, 60, 0, 1))); err != nil {
		t.Errorf("an improvement was flagged: %v", err)
	}
	if err := compareSets(&out, base, writeSet(t, 10, planSet(1, 100*(1+2*bound), 0, 1))); err == nil {
		t.Error("twice the bound slower passed")
	}
	if strings.Contains(out.String(), "unresolved") {
		t.Errorf("single-set files have no spread, yet:\n%s", out.String())
	}

	// Two sets a side whose spread is wider than the bound: the data
	// cannot tell, which is neither a pass nor a regression.
	out.Reset()
	wide := 100 * (1 + 4*bound)
	noisyA := writeSet(t, 10, planSet(1, 100, 0, 1), planSet(1, wide, 0, 1))
	noisyB := writeSet(t, 10, planSet(1, wide, 0, 1), planSet(1, 100*(1+8*bound), 0, 1))
	if err := compareSets(&out, noisyA, noisyB); err != nil {
		t.Errorf("an unresolved row was reported as a regression: %v", err)
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("spread beyond the bound was not reported as unresolved:\n%s", out.String())
	}

	// serve.ok_share is bounded in its own unit: 0.05 of 1 is past 0.02
	// although far inside any relative bound.
	if err := compareSets(&out, base, writeSet(t, 10, planSet(1, 100, 0, 0.95))); err == nil {
		t.Error("serve.ok_share 1 -> 0.95 passed its absolute bound")
	}

	// A metric that repeats exactly may not differ at all; one that is
	// measured (plan.enumerate_ms) may.
	out.Reset()
	if err := compareSets(&out, base, writeSet(t, 10, planSet(1, 100, 0.5, 1))); err == nil || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("a changed plan.calib_err_pct passed (err %v):\n%s", err, out.String())
	}

	// Sets taken with another window or GOMAXPROCS are not comparable.
	if err := compareSets(&out, base, writeSet(t, 5, planSet(1, 100, 0, 1))); err == nil {
		t.Error("sets with different windows were compared")
	}
	if err := compareSets(&out, base, writeSet(t, 10, planSet(2, 100, 0, 1))); err == nil {
		t.Error("sets with different GOMAXPROCS were compared")
	}
}
