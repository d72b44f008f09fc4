package main

import (
	"math"
	"sync"
	"time"

	"orbit/internal/tensor"
)

// poisson returns the due offsets of a seeded open-loop arrival stream
// at a fixed rate (exponential gaps) covering dur. The rate is a
// constant of the workload, never derived from the system under test.
func poisson(rng *tensor.RNG, rps float64, dur time.Duration) []time.Duration {
	var dues []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rps
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return dues
		}
		dues = append(dues, d)
	}
}

// fired is the timing of one open-loop request.
type fired struct {
	due, sent, done time.Time
}

// lagMs is how late the generator sent the request.
func (f fired) lagMs() float64 { return ms(f.sent.Sub(f.due)) }

// latencyMs is counted from the due time, not from the send.
func (f fired) latencyMs() float64 { return ms(f.done.Sub(f.due)) }

// openLoop sends request i at start+dues[i] regardless of how the
// system keeps up: one scheduler goroutine sleeps to each due time and
// hands the request to its own goroutine, so a slow reply never delays
// a later send. Latency is counted from the due time, which charges a
// generator stall to the requests it delayed; the stall itself is
// reported as lag. do blocks until the request is answered.
func openLoop(dues []time.Duration, do func(i int, due time.Time)) []fired {
	out := make([]fired, len(dues))
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range dues {
		due := start.Add(d)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due, out[i].sent = due, time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i, due)
			out[i].done = time.Now()
		}()
	}
	wg.Wait()
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
