// Command bench is the repository's one benchmark: six workloads over
// the three end-to-end paths (a Hybrid-STOP training step, a served
// forecast, a planner query), each measured end to end with tracing
// off and, in a separate traced run, layer by layer. See README.md for
// the metric tables and BENCHMARK.json for the bounds.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
//	bench [-seed N] [-seconds S] [-repeat R] [-out F]     every workload, untraced then traced
//	bench -compare a.json b.json                          two record sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupTrials is how often a run repeats its set-up; setup_s is the
// median, so one slow page-in does not read as a regression. (A
// variable, like replayBatch, so the scaled-down test run can shrink it.)
var setupTrials = 3

// batchTail and requestTail are the percentiles op.tail_ms reports:
// the highest with at least ten samples beyond it in a 15 s window
// (≈ 300–500 steps or batches, ≥ 2000 served requests; the 80-odd
// planner passes leave p90 only eight).
// The tail is per-layer, without a bound: a closed-loop op is constant
// work, so on a shared host its high percentiles measure the
// neighbours (over ten runs of identical code p90 spread by 22–52 % at
// reference speed and by more raw).
const (
	batchTail   = 0.90
	requestTail = 0.95
)

type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // allowed worsening as a share of the parent's median (end-to-end only)
	Exact              bool    // per-layer only: a computed count or simulated time that repeats exactly on every run
	AbsBound           float64 // per-layer only: -compare's allowed worsening in the metric's own unit (BENCHMARK.json holds relative bounds only)
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; what "op" means is the workload's (a training
// step, a served request from its due time, an 8×4 forecast batch, a
// planner query) and README.md maps each to the path-specific name.
// A metric has one bound for all workloads, so each bound is set by
// the metric's noisiest workload; README.md lists the spread of each.
// The resident-set peak is per-layer (host.peak_rss_mb): on the
// 25–45 MB processes of the train and planner workloads it follows
// where the collector's cycles fall and spread by 9–25 % over ten runs
// of identical code, and a metric that cannot be held is demoted, not
// given a wider bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics. A metric reads 0 on a
// workload whose path does not run that layer: the "this workload
// bypasses it" prediction, made checkable.
var perLayer = []metricDef{
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "host.ref_ms", Unit: "ms", Better: "lower"},
	{Name: "host.op_p50_raw_ms", Unit: "ms", Better: "lower"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "op.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "op.throughput_per_s", Unit: "1/s", Better: "higher"},
	// train: the step's three pieces, and what the supervisor and checkpoints add
	{Name: "train.fwdbwd_ms", Unit: "ms", Better: "lower"},
	{Name: "train.hooks_ms", Unit: "ms", Better: "lower"},
	{Name: "train.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "train.rank_skew_ms", Unit: "ms", Better: "lower"},
	{Name: "train.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "train.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "guard.step_tax_pct", Unit: "%", Better: "lower"},
	{Name: "ckpt.save_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.save_mb_per_s", Unit: "MB/s", Better: "higher"},
	// simulated clock and counters: deterministic, identical on every run
	{Name: "cluster.sim_step_ms", Unit: "sim_ms", Better: "lower", Exact: true},
	{Name: "cluster.sim_flops_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.mem_peak_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "comm.sim_exposed_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "core.sim_compute_ms", Unit: "sim_ms", Better: "lower", Exact: true},
	{Name: "core.sim_gather_wait_ms", Unit: "sim_ms", Better: "lower", Exact: true},
	{Name: "core.sim_tp_wait_ms", Unit: "sim_ms", Better: "lower", Exact: true},
	{Name: "core.sim_rs_wait_ms", Unit: "sim_ms", Better: "lower", Exact: true},
	{Name: "core.sim_ddp_wait_ms", Unit: "sim_ms", Better: "lower", Exact: true},
	{Name: "core.sim_scaling_eff", Unit: "share", Better: "higher", Exact: true},
	{Name: "pp.sim_bubble_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "pp.sched_idle_share", Unit: "share", Better: "lower", Exact: true},
	// host cost of collectives
	{Name: "comm.allgather_host_us", Unit: "us", Better: "lower"},
	{Name: "comm.reducescatter_host_us", Unit: "us", Better: "lower"},
	{Name: "comm.allreduce_host_us", Unit: "us", Better: "lower"},
	{Name: "comm.p2p_host_us", Unit: "us", Better: "lower"},
	{Name: "comm.allocs_per_call", Unit: "count", Better: "lower"},
	// kernels at workload shapes
	{Name: "tensor.matmul_f32_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_int8_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_q4_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.forkjoin_us", Unit: "us", Better: "lower"},
	{Name: "nn.attention_fwd_us", Unit: "us", Better: "lower"},
	{Name: "nn.block_fwd_us", Unit: "us", Better: "lower"},
	{Name: "nn.block_fwdbwd_us", Unit: "us", Better: "lower"},
	{Name: "nn.layernorm_fwdbwd_us", Unit: "us", Better: "lower"},
	{Name: "optim.adamw_ns_per_param", Unit: "ns", Better: "lower"},
	// the forecast engine and its set-up
	{Name: "ckpt.load_ms", Unit: "ms", Better: "lower"},
	{Name: "quant.quantize_ms", Unit: "ms", Better: "lower"},
	{Name: "quant.score_delta_rmse", Unit: "rmse", Better: "lower"},
	{Name: "climate.field_gen_us", Unit: "us", Better: "lower"},
	{Name: "infer.scorecache_cold_us", Unit: "us", Better: "lower"},
	{Name: "infer.scorecache_hit_us", Unit: "us", Better: "lower"},
	{Name: "infer.weight_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "infer.plan_forward_ms", Unit: "ms", Better: "lower"},
	{Name: "infer.rollout_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "infer.score_share", Unit: "share", Better: "lower"},
	{Name: "infer.allocs_per_rollout", Unit: "count", Better: "lower"},
	{Name: "metrics.score_us", Unit: "us", Better: "lower"},
	// admission, batching, shedding
	{Name: "serve.ok_share", Unit: "share", Better: "higher", AbsBound: 0.02},
	{Name: "serve.admit_to_reply_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.admit_to_reply_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.mean_batch", Unit: "count", Better: "higher"},
	{Name: "serve.batches_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.shed_capacity_share", Unit: "share", Better: "lower"},
	{Name: "serve.shed_priority_share", Unit: "share", Better: "lower"},
	{Name: "serve.expired_share", Unit: "share", Better: "lower"},
	{Name: "serve.failed_share", Unit: "share", Better: "lower"},
	{Name: "serve.max_queue_depth", Unit: "count", Better: "lower"},
	{Name: "serve.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	// planner
	{Name: "plan.candidates", Unit: "count", Better: "lower", Exact: true},
	{Name: "plan.enumerate_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.predict_us_per_cand", Unit: "us", Better: "lower"},
	{Name: "plan.simulate_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.calib_err_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "plan.pred_mem_err_bytes", Unit: "bytes", Better: "lower", Exact: true},
}

// workload is one set of inputs. aka maps the generic op metrics to
// the path-specific names the issue and README use. procs is the
// GOMAXPROCS the workload runs at (0 = leave at nproc): the closed-loop
// workloads run on one P, the open-loop one needs a second P for the
// load generator. README.md has the measurements behind that choice.
type workload struct {
	name, why string
	procs     int
	share     float64 // core-bound share of an op, see hostref.go
	aka       map[string]string
	run       func(*env) (*report, error)
}

var workloads = []workload{
	{"train_hybrid4d", "TP2xPP2xFSDP2 over 8 simulated GPUs under the supervisor with checkpoints: comm, core, pp, guard and ckpt do most of the work", 1, 0.9,
		map[string]string{"op_p50_ms": "train_step_ms", "op.tail_ms": "train_step_p90_ms", "op.throughput_per_s": "train_samples_per_s"},
		func(e *env) (*report, error) { return runTrain(e, true) }},
	{"train_single", "the same task on one worker, no comm, pp, guard or checkpoints: tensor/nn/optim kernels own the step, a comm change must not move it", 1, 0.85,
		map[string]string{"op_p50_ms": "train_step_ms", "op.tail_ms": "train_step_p90_ms", "op.throughput_per_s": "train_samples_per_s"},
		func(e *env) (*report, error) { return runTrain(e, false) }},
	{"serve_steady", "closed loop, one client waiting for each reply: latency is the batch window + forward + scoring, admission and batching are idle", 1, 0.45,
		map[string]string{"op_p50_ms": "serve_p50_ms", "op.tail_ms": "serve_p95_ms", "op.throughput_per_s": "serve_goodput_rps"},
		func(e *env) (*report, error) { return runServe(e, false) }},
	{"serve_overload", "open loop at 640 req/s, about 2x saturation, mixed priorities: admission, batch formation, expiry and slot accounting decide the result", 0, 0.9,
		map[string]string{"op_p50_ms": "serve_p50_ms", "op.tail_ms": "serve_p95_ms", "op.throughput_per_s": "serve_goodput_rps"},
		func(e *env) (*report, error) { return runServe(e, true) }},
	{"forecast_batch_int8", "closed loop, one caller, 8x4 scored rollouts on the int8 model with no serve layer: the only path through quant and MatMulQuantInto", 1, 0.9,
		map[string]string{"op_p50_ms": "forecast_batch_ms", "op.tail_ms": "forecast_batch_p90_ms", "op.throughput_per_s": "forecast_rollouts_per_s"},
		runForecast},
	{"plan_query", "sequential Best4 planner queries over a fixed family: only plan, pp scheduling and the simulated comm/cluster clocks run, no kernels", 1, 0.9,
		map[string]string{"op_p50_ms": "plan_query_ms", "op.tail_ms": "plan_query_p90_ms", "op.throughput_per_s": "plan_queries_per_s"},
		runPlan},
}

// env is what a workload run is given.
type env struct {
	seed   uint64
	window time.Duration // the measured window (split between arms when traced)
	traced bool
	tr     *tracer // nil when untraced
	dir    string  // scratch directory inside the checkout
}

// report is what a workload run yields. An untraced run fills the
// end-to-end fields; a traced run fills them from its untraced arm and
// also fills layer.
type report struct {
	setupS    []float64 // one per set-up trial
	opMs      []float64 // latency of every successful op in the window, at reference host speed
	rawMs     []float64 // the same as the wall clock saw it
	tailQ     float64   // the percentile op.tail_ms reports
	units     float64   // work completed in the window, the numerator of op.throughput_per_s
	wall      time.Duration
	attempted int
	failed    int // ops that failed outright; shed and expired requests are outcomes, counted in serve.ok_share
	layer     map[string]float64
	problems  []string
}

func newReport(tailQ float64) *report { return &report{tailQ: tailQ, layer: map[string]float64{}} }

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// measure runs one workload once, at its GOMAXPROCS, with scratch
// files under scratch. A traced run also fills the report's per-layer
// metrics and, given traceOut, writes the spans there.
func measure(w workload, seed uint64, seconds float64, traced bool, traceOut, scratch string) (*report, error) {
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	coreShare = w.share
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, window: time.Duration(seconds * float64(time.Second)), traced: traced, dir: dir}
	if traced {
		e.tr = newTracer()
	}
	rep, err := w.run(e)
	if err != nil {
		return nil, err
	}
	if rep.attempted < 1 {
		rep.fail("no operation was attempted")
	}
	if traced && traceOut != "" {
		if err := e.tr.writeChrome(traceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// result is the contract's view of a report: the per-layer metrics of
// a traced run, else the end-to-end metrics, and the correctness
// checks that failed.
func (rep *report) result(traced bool) (result, []string, error) {
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	problems := rep.problems
	if traced {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, nil, err
		}
		rep.layer["host.peak_rss_mb"] = rss
		rep.layer["host.op_p50_raw_ms"] = median(rep.rawMs)
		rep.layer["op.tail_ms"] = percentile(rep.opMs, rep.tailQ)
		rep.layer["op.throughput_per_s"] = rep.units / rep.wall.Seconds()
		declared := map[string]bool{}
		for _, d := range perLayer {
			res.Metrics[d.Name], declared[d.Name] = metric{rep.layer[d.Name], d.Unit}, true
		}
		for name := range rep.layer {
			if !declared[name] {
				problems = append(problems, fmt.Sprintf("metric %q is not declared in the per-layer table", name))
			}
		}
	} else {
		values := map[string]float64{
			"setup_s":   median(rep.setupS),
			"op_p50_ms": median(rep.opMs),
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metric{values[d.Name], d.Unit}
		}
	}
	for name := range res.Metrics {
		if !nameRE.MatchString(name) {
			problems = append(problems, fmt.Sprintf("metric name %q is outside [A-Za-z0-9_.-]", name))
		}
	}
	res.Correct = len(problems) == 0
	return res, problems, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// printMetrics writes one "name value unit" line per metric, in table
// order, with the path-specific alias where the workload has one.
func printMetrics(w workload, defs []metricDef, res result) {
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		aka := ""
		if a := w.aka[d.Name]; a != "" {
			aka = "  # " + a
		}
		fmt.Printf("  %-30s %14.6g %-8s%s\n", d.Name, m.Value, m.Unit, aka)
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print its result as the last line")
		seed     = flag.Uint64("seed", 1, "workload seed: data streams, arrival times, query order")
		seconds  = flag.Float64("seconds", 15, "measured window per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		traceOut = flag.String("trace-out", "", "write the traced run's spans here as Chrome trace-event JSON")
		repeat   = flag.Int("repeat", 1, "all-workloads mode: run this many sets and print median, quartiles and spread")
		out      = flag.String("out", "", "all-workloads mode: write the record set here")
		compare  = flag.Bool("compare", false, "compare two record sets (a.json b.json) against the bounds")
	)
	flag.Parse()
	var err error
	switch args := flag.Args(); {
	case *compare && len(args) == 2:
		err = compareSets(os.Stdout, args[0], args[1])
	case *compare:
		err = fmt.Errorf("-compare needs two record-set files")
	case *name == "":
		err = runSuite(*seed, *seconds, *repeat, *traceOut, *out)
	default:
		err = runSingle(*name, *seed, *seconds, *trace == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runSingle is the acceptance driver's mode: one workload, one run,
// every metric by name and the result object as the last line.
func runSingle(name string, seed uint64, seconds float64, traced bool, traceOut string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	// Scratch space (checkpoints) lives inside the checkout.
	scratch := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	rep, err := measure(w, seed, seconds, traced, traceOut, scratch)
	if err != nil {
		return err
	}
	res, problems, err := rep.result(traced)
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("%s seed=%d seconds=%g traced=%v attempted=%d failed=%d\n", w.name, seed, seconds, traced, res.Attempted, res.Failed)
	printMetrics(w, defs, res)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d correctness check(s) failed", w.name, len(problems))
	}
	return nil
}
