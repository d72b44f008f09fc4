package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

// recordSet is what one invocation of the whole suite writes: where
// and how it ran, and one set of results per repeat.
type recordSet struct {
	Rev     string  `json:"rev"`
	Nproc   int     `json:"nproc"`
	Go      string  `json:"go"`
	Seconds float64 `json:"seconds"`
	Sets    []set   `json:"sets"`
}

type set struct {
	Seed      uint64                    `json:"seed"`
	Workloads map[string]workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Gomaxprocs int    `json:"gomaxprocs"`
	EndToEnd   result `json:"end_to_end"`
	PerLayer   result `json:"per_layer"`
}

// child runs one (workload, trace) pair in its own process, so that
// peak_rss_mb is the workload's own, and parses the result line.
func child(w workload, seed uint64, seconds float64, trace int, traceOut string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", fmt.Sprint(trace)}
	if trace == 1 && traceOut != "" {
		args = append(args, "--trace-out", strings.TrimSuffix(traceOut, ".json")+"."+w.name+".json")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return result{}, fmt.Errorf("%s trace=%d: %w", w.name, trace, err)
		}
		return result{}, fmt.Errorf("%s trace=%d: no result line: %w", w.name, trace, jerr)
	}
	return res, nil
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs every workload untraced, then traced, `repeat` times
// over consecutive seeds, prints every metric by name and writes the
// record set.
func runSuite(seed uint64, seconds float64, repeat int, traceOut, out string) error {
	rs := recordSet{Rev: gitRev(), Nproc: runtime.NumCPU(), Go: runtime.Version(), Seconds: seconds}
	incorrect := 0
	for r := 0; r < repeat; r++ {
		s := set{Seed: seed + uint64(r), Workloads: map[string]workloadRecord{}}
		for _, w := range workloads {
			rec := workloadRecord{Gomaxprocs: w.procs}
			if w.procs == 0 {
				rec.Gomaxprocs = runtime.GOMAXPROCS(0)
			}
			var err error
			if rec.EndToEnd, err = child(w, s.Seed, seconds, 0, ""); err != nil {
				return err
			}
			if rec.PerLayer, err = child(w, s.Seed, seconds, 1, traceOut); err != nil {
				return err
			}
			fmt.Printf("%s  seed=%d  attempted=%d failed=%d correct=%v\n", w.name, s.Seed,
				rec.EndToEnd.Attempted, rec.EndToEnd.Failed, rec.EndToEnd.Correct && rec.PerLayer.Correct)
			printMetrics(w, endToEnd, rec.EndToEnd)
			printMetrics(w, perLayer, rec.PerLayer)
			if !rec.EndToEnd.Correct || !rec.PerLayer.Correct {
				incorrect++
			}
			s.Workloads[w.name] = rec
		}
		rs.Sets = append(rs.Sets, s)
	}
	if repeat > 1 {
		fmt.Printf("\n%-20s %-18s %12s %12s %12s %8s\n", "workload", "metric", "median", "q1", "q3", "spread")
		for _, w := range workloads {
			for _, d := range endToEnd {
				xs := rs.values(w.name, d.Name, false)
				q1, q3 := quartiles(xs)
				fmt.Printf("%-20s %-18s %12.6g %12.6g %12.6g %7.2f%%\n", w.name, d.Name, median(xs), q1, q3, spread(xs)*100)
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rs, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workload run(s) failed their correctness checks", incorrect)
	}
	return nil
}

// values collects one metric of one workload across sets: from the
// traced runs when layer is set, else from the untraced ones.
func (rs recordSet) values(workload, name string, layer bool) []float64 {
	var xs []float64
	for _, s := range rs.Sets {
		res := s.Workloads[workload].EndToEnd
		if layer {
			res = s.Workloads[workload].PerLayer
		}
		if m, ok := res.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// sameConditions reports why two record sets cannot be compared: bounds
// are sized for one window length and one GOMAXPROCS per workload, and
// a different core count is a different host.
func sameConditions(a, b recordSet) error {
	if a.Seconds != b.Seconds {
		return fmt.Errorf("window differs: %g s vs %g s", a.Seconds, b.Seconds)
	}
	if a.Nproc != b.Nproc {
		return fmt.Errorf("host differs: nproc %d vs %d", a.Nproc, b.Nproc)
	}
	for _, rs := range []recordSet{a, b} {
		for _, s := range rs.Sets {
			for name, rec := range s.Workloads {
				if ref, ok := a.Sets[0].Workloads[name]; ok && rec.Gomaxprocs != ref.Gomaxprocs {
					return fmt.Errorf("%s: GOMAXPROCS differs: %d vs %d", name, ref.Gomaxprocs, rec.Gomaxprocs)
				}
			}
		}
	}
	return nil
}

func readSet(path string) (recordSet, error) {
	var rs recordSet
	b, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(b, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// compareSets prints one row per (end-to-end metric, workload): both
// medians, the change in the metric's worse direction, the bound, and a
// verdict. A row is "unresolved" when either side's run-to-run spread
// exceeds the bound (the data cannot tell), and REGRESSION when b is
// worse than a by more than the bound. Per-layer metrics with an
// absolute bound are judged the same way in their own unit. The
// per-layer metrics that repeat exactly (simulated clocks and counters,
// the planner's calibration) must be identical in every set of both
// files; one that is not is printed as DIFFERS. A regression or a
// difference makes the exit status non-zero.
func compareSets(out io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	if len(a.Sets) == 0 || len(b.Sets) == 0 {
		return fmt.Errorf("a record set holds no runs")
	}
	if err := sameConditions(a, b); err != nil {
		return fmt.Errorf("%s and %s cannot be compared: %w", pathA, pathB, err)
	}
	fmt.Fprintf(out, "a: %s rev %s (%d sets)   b: %s rev %s (%d sets)\n", pathA, a.Rev, len(a.Sets), pathB, b.Rev, len(b.Sets))
	fmt.Fprintf(out, "%-20s %-18s %12s %12s %10s %8s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	regressions, differs := 0, 0
	judge := func(w workload, d metricDef, xa, xb []float64) {
		if len(xa) == 0 || len(xb) == 0 {
			return
		}
		ma, mb := median(xa), median(xb)
		worse := mb - ma
		if d.Better == "higher" && worse != 0 {
			worse = -worse
		}
		// In the metric's unit: a relative bound is a share of each side's median.
		limitA, limitB := d.Bound*math.Abs(ma), d.Bound*math.Abs(mb)
		change, bound := fmt.Sprintf("%.2f%%", worse/math.Abs(ma)*100), fmt.Sprintf("%.0f%%", d.Bound*100)
		if d.AbsBound > 0 {
			limitA, limitB = d.AbsBound, d.AbsBound
			change, bound = fmt.Sprintf("%.4g", worse), fmt.Sprintf("%.4g", d.AbsBound)
		}
		verdict := "ok"
		switch {
		case iqr(xa) > limitA || iqr(xb) > limitB:
			verdict = fmt.Sprintf("unresolved (spread a %.4g b %.4g %s)", iqr(xa), iqr(xb), d.Unit)
		case worse > limitA:
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(out, "%-20s %-18s %12.6g %12.6g %10s %8s  %s\n", w.name, d.Name, ma, mb, change, bound, verdict)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			judge(w, d, a.values(w.name, d.Name, false), b.values(w.name, d.Name, false))
		}
		for _, d := range perLayer {
			xa, xb := a.values(w.name, d.Name, true), b.values(w.name, d.Name, true)
			if d.AbsBound > 0 && !allZero(xa, xb) { // 0 throughout: the workload bypasses the layer
				judge(w, d, xa, xb)
			}
			if xs := append(xa, xb...); d.Exact && len(xs) > 0 && slices.Max(xs) != slices.Min(xs) {
				differs++
				fmt.Fprintf(out, "%-20s %-18s DIFFERS, must repeat exactly: %v\n", w.name, d.Name, xs)
			}
		}
	}
	if regressions > 0 || differs > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound, %d exact metric(s) differ", regressions, differs)
	}
	return nil
}

func allZero(xss ...[]float64) bool {
	for _, xs := range xss {
		for _, x := range xs {
			if x != 0 {
				return false
			}
		}
	}
	return true
}
