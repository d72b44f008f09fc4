package guard

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"orbit/internal/cluster"
)

// watchdog is the hang/straggler detector. It watches two progress
// signals — host-side heartbeats (step boundaries and per-micro-batch
// beats) and each participating device's LastProgress clock — and when
// NEITHER has advanced for a full StepDeadline it declares the run
// hung and shoots the rank most likely to be the straggler.
//
// Victim selection: a stalled rank is parked inside a device operation
// (not a collective wait), while its victims are parked at collective
// rendezvous waiting for it. So the watchdog picks the alive,
// non-comm-waiting participant with the OLDEST LastProgress and evicts
// its whole NODE: sibling ranks may be blocked inside the same hung
// node's device operations, where only death (not comm poison) unwinds
// them — and the elastic rebuild drops the entire node anyway. The
// eviction converts the invisible hang into honest device deaths,
// which the rebuild path already recovers from.
//
// Kills are rate-limited by a jittered pause (the rebuild needs time to
// make progress before the next verdict) and bounded by
// maxWatchdogKills; an exhausted budget kills the remaining machine,
// once per watched machine, so the run fails loudly instead of hanging
// forever.
type watchdog struct {
	deadline time.Duration
	onKill   func(step int, detail string)

	beatNS   atomic.Int64 // wall-clock ns of the last host/rank heartbeat
	lastStep atomic.Int64 // step of the last heartbeat (for event labels)

	mu          sync.Mutex
	machine     *cluster.Machine
	ranks       int
	kills       int
	gaveUp      bool      // the budget ran out on this machine and it was killed
	muzzleUntil time.Time // after a kill: no verdicts before this instant
	rng         *rand.Rand

	stopCh   chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func newWatchdog(deadline time.Duration, onKill func(step int, detail string)) *watchdog {
	w := &watchdog{
		deadline: deadline,
		onKill:   onKill,
		rng:      rand.New(rand.NewSource(supervisorSeed)),
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	w.beatNS.Store(time.Now().UnixNano())
	go w.run()
	return w
}

// watch points the watchdog at a (re)built machine. The first `ranks`
// devices are the participants; spares are ignored (their progress
// clocks never tick and would otherwise always look stalled).
func (w *watchdog) watch(m *cluster.Machine, ranks int) {
	w.mu.Lock()
	w.machine = m
	w.ranks = ranks
	w.gaveUp = false
	w.mu.Unlock()
	w.beatNS.Store(time.Now().UnixNano())
}

// beat records host-side liveness. Called from rank goroutines (every
// micro-batch) and the step hook; must be cheap.
func (w *watchdog) beat(step int) {
	w.beatNS.Store(time.Now().UnixNano())
	w.lastStep.Store(int64(step))
}

func (w *watchdog) stop() {
	w.stopOnce.Do(func() { close(w.stopCh) })
	<-w.done
}

func (w *watchdog) run() {
	defer close(w.done)
	poll := w.deadline / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-w.stopCh:
			return
		case <-t.C:
			w.inspect()
		}
	}
}

// inspect is one watchdog verdict: find the freshest progress signal,
// and if it is older than the deadline, shoot the likeliest straggler.
func (w *watchdog) inspect() {
	w.mu.Lock()
	m, ranks := w.machine, w.ranks
	muzzled := time.Now().Before(w.muzzleUntil)
	w.mu.Unlock()
	if m == nil || muzzled {
		return
	}
	if ranks > len(m.Devices) {
		ranks = len(m.Devices)
	}
	freshest := time.Unix(0, w.beatNS.Load())
	for _, d := range m.Devices[:ranks] {
		if !d.Alive() {
			continue
		}
		if p := d.LastProgress(); p.After(freshest) {
			freshest = p
		}
	}
	if time.Since(freshest) < w.deadline {
		return
	}
	step := int(w.lastStep.Load())

	w.mu.Lock()
	if w.kills >= maxWatchdogKills {
		gaveUp := w.gaveUp
		w.gaveUp = true
		w.mu.Unlock()
		if gaveUp {
			return // the machine is dead already; the run is unwinding
		}
		// Budget exhausted and still hung: fail the run loudly rather
		// than hang forever — kill everything so the step unwinds into
		// a terminal "no healthy nodes" error.
		for _, d := range m.Devices {
			if d.Alive() {
				d.Kill()
			}
		}
		w.onKill(step, fmt.Sprintf("kill budget (%d) exhausted with run still hung: killing remaining machine", maxWatchdogKills))
		return
	}
	w.kills++
	// The kill triggers an elastic rebuild that needs wall-clock time
	// to show progress before the next verdict.
	w.muzzleUntil = time.Now().Add(w.pause())
	w.mu.Unlock()

	victim := pickStraggler(m.Devices[:ranks])
	if victim == nil {
		return // everything already dead; the run is unwinding
	}
	// Evict the straggler's whole node, not just the one device: when a
	// node hangs, its other ranks are stuck inside stalled device ops
	// that only a Kill can interrupt, and the step cannot unwind until
	// every rank goroutine returns.
	evicted := 0
	for _, d := range m.Devices {
		if d.Node == victim.Node && d.Alive() {
			d.Kill()
			evicted++
		}
	}
	w.beatNS.Store(time.Now().UnixNano()) // restart the progress clock
	w.onKill(step, fmt.Sprintf("no progress for %v: declared straggler device %d dead, evicted node %d (%d devices)",
		w.deadline, victim.ID, victim.Node, evicted))
}

// pause draws the quiet time after a kill: a backoff of half the
// deadline plus a uniform jitter of up to one backoff more, so it lies
// in [deadline/2, deadline]. Callers hold w.mu (the rng is not
// concurrency-safe).
func (w *watchdog) pause() time.Duration {
	backoff := w.deadline / 2
	return backoff + time.Duration(w.rng.Int63n(int64(backoff)+1))
}

// pickStraggler returns the participant to shoot: alive, preferring
// ranks NOT parked at a collective rendezvous (those are victims of
// the hang, not its cause), oldest LastProgress first (a zero time —
// no operation ever — is oldest of all).
func pickStraggler(devs []*cluster.Device) *cluster.Device {
	var best *cluster.Device
	var bestWaiting bool
	var bestTime time.Time
	for _, d := range devs {
		if !d.Alive() {
			continue
		}
		waiting := d.InCommWait()
		t := d.LastProgress()
		switch {
		case best == nil,
			bestWaiting && !waiting,
			bestWaiting == waiting && t.Before(bestTime):
			best, bestWaiting, bestTime = d, waiting, t
		}
	}
	return best
}
