package guard

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"orbit/internal/cluster"
)

func TestSentinelTriggers(t *testing.T) {
	s := &sentinel{}
	for step, gn := range []float64{1.0, 1.1, 0.9} {
		if err := s.check(step, 0.5, gn); err != nil {
			t.Fatalf("healthy step %d flagged: %v", step, err)
		}
	}
	err := s.check(3, 0.5, 50) // ~50× the EWMA, warmup passed
	var div *DivergenceError
	if !asDivergence(err, &div) || div.Reason != "grad norm spike" {
		t.Fatalf("spike not flagged: %v", err)
	}
	if err := s.check(3, math.NaN(), 1); err == nil {
		t.Fatal("NaN loss not flagged")
	}
	if err := s.check(3, 0.5, math.Inf(1)); err == nil {
		t.Fatal("Inf grad norm not flagged")
	}
	// Reset clears the spike memory: the same norm that spiked is the
	// new baseline.
	s.reset()
	if err := s.check(4, 0.5, 50); err != nil {
		t.Fatalf("post-reset baseline flagged: %v", err)
	}
}

func TestSentinelSpikeUnarmedDuringWarmup(t *testing.T) {
	s := &sentinel{}
	if err := s.check(0, 0.5, 1e-6); err != nil {
		t.Fatal(err)
	}
	// A huge jump inside warmup is tolerated (loss-landscape cliffs at
	// initialization are normal); only non-finite values trip here.
	if err := s.check(1, 0.5, 1.0); err != nil {
		t.Fatalf("warmup spike flagged: %v", err)
	}
}

func TestSaltValueDeterministicNonZero(t *testing.T) {
	a := saltValue(7, 1, 6)
	if a != saltValue(7, 1, 6) {
		t.Fatal("saltValue not deterministic")
	}
	if a == 0 {
		t.Fatal("saltValue returned 0 (a no-op XOR)")
	}
	if a == saltValue(7, 2, 6) {
		t.Fatal("different attempts must produce different salts")
	}
}

func TestPickStragglerPrefersNonWaiting(t *testing.T) {
	m := cluster.NewMachine(cluster.Frontier(), 1, 4)
	d := m.Devices
	// d0: victim parked at a rendezvous (old progress, in comm wait);
	// d1: straggler (old progress, NOT waiting); d2: recently active.
	d[0].Compute(1)
	d[1].Compute(1)
	d[0].BeginCommWait()
	time.Sleep(2 * time.Millisecond)
	d[2].Compute(1)
	if got := pickStraggler(d[:3]); got != d[1] {
		t.Fatalf("picked device %d, want straggler 1", got.ID)
	}
	// With the straggler dead, any non-waiting rank still outranks the
	// waiting one, regardless of age.
	d[1].Kill()
	if got := pickStraggler(d[:3]); got != d[2] {
		t.Fatalf("picked device %d, want non-waiting 2", got.ID)
	}
	// Only a waiting rank left: the fallback shoots it anyway —
	// over-killing beats hanging forever.
	d[2].Kill()
	if got := pickStraggler(d[:3]); got != d[0] {
		t.Fatalf("fallback picked device %d, want 0", got.ID)
	}
	d[0].Kill()
	if got := pickStraggler(d[:3]); got != nil {
		t.Fatalf("all dead: picked device %d, want nil", got.ID)
	}
}

func TestWatchdogKillBudgetExhaustedKillsMachine(t *testing.T) {
	// One single-device node more than the kill budget: each verdict
	// evicts one node, the exhausted budget then kills the last.
	m := cluster.NewMachine(cluster.Frontier(), maxWatchdogKills+1, 1)
	var mu sync.Mutex
	var details []string
	w := newWatchdog(10*time.Millisecond, func(step int, detail string) {
		mu.Lock()
		details = append(details, detail)
		mu.Unlock()
	})
	defer w.stop()
	w.watch(m, maxWatchdogKills+1)
	// Nothing ever progresses: the watchdog kills its allowed victims,
	// then — still no progress — gives up by killing the rest.
	// A verdict kills before it notifies, so wait on the notification.
	gaveUp := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(details) > 0 && strings.Contains(details[len(details)-1], "exhausted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !gaveUp() {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never exhausted its budget")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, d := range m.Devices {
		if d.Alive() {
			t.Fatalf("device %d alive: an exhausted budget must kill the whole machine", d.ID)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(details) < maxWatchdogKills+1 {
		t.Fatalf("want %d kills and a giveup notification, got %v", maxWatchdogKills, details)
	}
	for _, d := range details[:maxWatchdogKills] {
		if !strings.Contains(d, "evicted node") {
			t.Fatalf("want %d evictions before the giveup, got %v", maxWatchdogKills, details)
		}
	}
}

// TestWatchdogGivesUpOnce drives inspect on a machine that never
// progresses with the kill budget spent: the first verdict kills the
// machine and notifies, every later one is silent. A fresh watch (a
// rebuilt machine) may give up once more. No timer runs: the watchdog
// is built without its polling goroutine, and a zero heartbeat and
// devices that never ran look stale at once.
func TestWatchdogGivesUpOnce(t *testing.T) {
	notes := 0
	w := &watchdog{deadline: time.Second, onKill: func(int, string) { notes++ },
		rng: rand.New(rand.NewSource(supervisorSeed)), kills: maxWatchdogKills}
	for _, m := range []*cluster.Machine{cluster.NewMachine(cluster.Frontier(), 2, 1), cluster.NewMachine(cluster.Frontier(), 2, 1)} {
		w.watch(m, 2)
		w.beatNS.Store(0)
		for i := 0; i < 100; i++ {
			w.inspect()
		}
		for _, d := range m.Devices {
			if d.Alive() {
				t.Fatalf("device %d alive after the budget ran out", d.ID)
			}
		}
	}
	if notes != 2 {
		t.Fatalf("%d give-up notifications over 100 verdicts on each of two machines, want 2", notes)
	}
}

// TestWatchdogPauseRange pins the quiet time after a kill to
// [deadline/2, deadline]: a backoff of half the deadline plus a jitter
// of up to one backoff more — never below the backoff.
func TestWatchdogPauseRange(t *testing.T) {
	const deadline = 100 * time.Millisecond
	w := &watchdog{deadline: deadline, rng: rand.New(rand.NewSource(supervisorSeed))}
	lo, hi := deadline, time.Duration(0)
	for i := 0; i < 1000; i++ {
		p := w.pause()
		lo, hi = min(lo, p), max(hi, p)
	}
	if lo < deadline/2 || hi > deadline || lo > deadline*11/20 || hi < deadline*19/20 {
		t.Fatalf("1000 pauses span [%v, %v], want them to fill [%v, %v]", lo, hi, deadline/2, deadline)
	}
}

func TestMergeLossesOverlaysExecutedSteps(t *testing.T) {
	dst := []float64{1, 2, 3, 4}
	mergeLosses(dst, []float64{0, 0, 30, 40})
	want := []float64{1, 2, 30, 40}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

func asDivergence(err error, div **DivergenceError) bool {
	d, ok := err.(*DivergenceError)
	if ok {
		*div = d
	}
	return ok
}
