package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed reference. The hosts this benchmark runs on are small
// shared VMs each of whose vCPUs alternates, independently, between a
// fast and a slow mode (neighbours on the same core): core-bound code
// runs 1.7–1.9× slower in the slow one, code that waits on memory or on
// the clock is unaffected, and a mode lasts from half a second to many
// minutes. Raw wall-clock medians of identical code spread by 18–38 %
// over ten 10 s runs (inter-quartile distance over the median), which
// no bound of at most a quarter survives. Timed intervals are therefore
// bracketed by a fixed reference kernel — plain Go in this file, no
// repository code, all core-bound — and reported at reference host
// speed:
//
//	measured ÷ (1 + share × (reference time ÷ refNominalMs − 1))
//
// where share is the part of the workload's op that is core-bound, a
// constant of the workload fitted once across both modes (the share
// column of workloads in main.go; README.md has the fit and the
// spreads). With share 1 the
// formula is the plain ratio measured × nominal ÷ reference; an op that
// spends 2 ms of 4 in a timer has a share near 0.4, and converting it
// by the plain ratio turns a slow minute into a fast reading. The raw
// median is reported beside the converted one as host.op_p50_raw_ms,
// and the reference time as host.ref_ms.
//
// What the conversion costs. The kernel runs in the benchmark's
// process, so it is not independent of the program: a change that
// leaves more garbage or evicts more cache slows the kernel that
// follows an op a little and hides that much of its own cost, and on
// the open-loop workload the sampler takes about 5 % of every P. A change
// that moves an op's core-bound share leaves the fitted constant a
// little off, which widens the spread between modes without favouring
// parent or change. Counts of requests that met their deadline
// (op.throughput_per_s and serve.ok_share on serve_overload) are in real
// time and are not converted. A gain claimed on a converted metric
// should therefore also show in host.op_p50_raw_ms over paired runs.

// refNominalMs is the reference kernel's time on the host the bounds
// were taken on (2-vCPU Xeon 2.1 GHz VM) in its fast mode. It only
// fixes the scale; on another host every value moves by the same
// factor for parent and change alike.
const refNominalMs = 0.85

// refKernel holds the operands of one reference kernel; kernels that
// run at the same time each need their own.
type refKernel struct{ a, b, c []float32 }

func newRefKernel() *refKernel {
	return &refKernel{make([]float32, 64*64), make([]float32, 64*256), make([]float32, 64*256)}
}

// run executes the kernel, a naive [64,64]×[64,256] float32 product
// (4 MiB of arithmetic over 144 KiB), and returns its time in ms.
func (r *refKernel) run() float64 {
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		ci := r.c[i*256 : (i+1)*256]
		clear(ci)
		for k := 0; k < 64; k++ {
			a, bk := r.a[i*64+k], r.b[k*256:(k+1)*256]
			for j := range ci {
				ci[j] += a * bk[j]
			}
		}
	}
	return ms(time.Since(t0))
}

var callerRef = newRefKernel()

// hostRef runs the reference kernel on the calling goroutine.
func hostRef() float64 { return callerRef.run() }

// coreShare is the core-bound share of the running workload's op;
// measure sets it from the workload's table entry.
var coreShare = 1.0

// atShare converts a measured time to reference host speed given the
// reference kernel's time beside it and the core-bound share of what
// was measured.
func atShare(measured, ref, share float64) float64 {
	return measured / (1 + share*(ref/refNominalMs-1))
}

// atRefSpeed converts one of the workload's timings given the
// reference kernel's time right before and right after it.
func atRefSpeed(measured, refBefore, refAfter float64) float64 {
	return atShare(measured, (refBefore+refAfter)/2, coreShare)
}

// timedAtRefSpeed runs fn bracketed by the reference kernel and
// returns its duration in ms at reference host speed.
func timedAtRefSpeed(fn func() error) (float64, error) {
	before := hostRef()
	t0 := time.Now()
	err := fn()
	d := ms(time.Since(t0))
	return atRefSpeed(d, before, hostRef()), err
}

// setupShare is the core-bound share of a set-up. The six set-ups
// fitted between 0.3 and 0.75, each within a point or two of its own
// best spread at 0.5, so they share one value.
const setupShare = 0.5

// timedSetup runs one set-up trial and returns its duration in seconds
// at reference host speed. A set-up lasts long enough for the host to
// change mode inside it, so the reference is sampled alongside, as in
// an open-loop run. On one P the sampler's kernels run in turn with the
// set-up, so their time is taken out.
func timedSetup(fn func() error) (float64, error) {
	ref := startRefSampler()
	t0 := time.Now()
	err := fn()
	end := time.Now()
	ref.finish()
	d, speed := ms(end.Sub(t0)), ref.during(t0, end)
	if runtime.GOMAXPROCS(0) == 1 {
		for i, at := range ref.at {
			if !at.Before(t0) && at.Before(end) {
				d -= ref.ms[i]
			}
		}
	}
	return atShare(d, speed, setupShare) / 1e3, err
}

// refSampler measures host speed alongside an open-loop run, where
// requests overlap and cannot be bracketed one by one, and alongside a
// set-up: a goroutine samples the reference every refEvery, and an
// interval is converted with the samples taken during it. The host's
// vCPUs change mode independently of each other, so a sample is one
// kernel per P, started together, and their mean: what a process that
// keeps every P busy gets.
type refSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	at   []time.Time
	ms   []float64
}

const refEvery = 20 * time.Millisecond

func startRefSampler() *refSampler {
	s := &refSampler{stop: make(chan struct{})}
	kernels := make([]*refKernel, runtime.GOMAXPROCS(0))
	for i := range kernels {
		kernels[i] = newRefKernel()
	}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		times := make([]float64, len(kernels))
		for {
			s.at = append(s.at, time.Now())
			var others sync.WaitGroup
			for i := 1; i < len(kernels); i++ {
				others.Add(1)
				go func() {
					defer others.Done()
					times[i] = kernels[i].run()
				}()
			}
			times[0] = kernels[0].run()
			others.Wait()
			var sum float64
			for _, t := range times {
				sum += t
			}
			s.ms = append(s.ms, sum/float64(len(times)))
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler; its samples may be read afterwards.
func (s *refSampler) finish() {
	close(s.stop)
	s.done.Wait()
}

// during returns the median reference time over [from, to], or the
// nearest sample when the interval holds none. (The median, because a
// sample that the collector or a preemption interrupted reads several
// times too long.)
func (s *refSampler) during(from, to time.Time) float64 {
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(from) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(to) })
	if lo >= hi {
		lo = max(0, min(lo, len(s.at)-1))
		if lo > 0 && from.Sub(s.at[lo-1]) < s.at[lo].Sub(from) {
			lo--
		}
		return s.ms[lo]
	}
	return median(s.ms[lo:hi])
}

// sumMs adds up durations given in ms.
func sumMs(xs []float64) time.Duration {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return time.Duration(sum * float64(time.Millisecond))
}
