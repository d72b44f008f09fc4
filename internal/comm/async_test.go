package comm

import (
	"math"
	"sync"
	"testing"

	"orbit/internal/cluster"
)

// TestConcurrentCollectivesDoNotCrossTalk extends the sequential
// cross-talk test to overlapping asynchronous collectives: each rank
// posts three different collectives before waiting on any of them,
// and waits out of post order. Results must match as if the
// collectives ran one at a time, for many iterations, and the test
// must pass under -race (the CI race stage runs this package).
func TestConcurrentCollectivesDoNotCrossTalk(t *testing.T) {
	const ranks = 4
	const iters = 60
	g := newGroup(ranks)
	type failure struct {
		rank, iter int
		what       string
	}
	var mu sync.Mutex
	var failures []failure
	report := func(rank, iter int, what string) {
		mu.Lock()
		failures = append(failures, failure{rank, iter, what})
		mu.Unlock()
	}
	runSPMD(ranks, func(rank int) {
		sumIn := make([]float32, 8)
		sumOut := make([]float32, 8)
		shard := make([]float32, 2)
		full := make([]float32, 2*ranks)
		meanIn := make([]float32, 4)
		for i := 0; i < iters; i++ {
			for j := range sumIn {
				sumIn[j] = float32(rank + i + j)
			}
			shard[0], shard[1] = float32(rank*100+i), float32(rank*100+i+1)
			for j := range meanIn {
				meanIn[j] = float32((rank + 1) * (i + 1))
			}
			h1 := g.IAllReduceSum(rank, sumIn, sumOut)
			h2 := g.IAllGather(rank, shard, full)
			h3 := g.IAllReduceMean(rank, meanIn, meanIn) // in-place
			// Wait out of post order: completion matching is by posting
			// sequence, not wait order.
			h3.Wait()
			h2.Wait()
			h1.Wait()
			for j := range sumOut {
				want := float32(ranks*(i+j) + 0 + 1 + 2 + 3)
				if sumOut[j] != want {
					report(rank, i, "all-reduce-sum mixed results")
					return
				}
			}
			for r := 0; r < ranks; r++ {
				if full[2*r] != float32(r*100+i) || full[2*r+1] != float32(r*100+i+1) {
					report(rank, i, "all-gather mixed results")
					return
				}
			}
			wantMean := float32(i+1) * float32(1+2+3+4) / ranks
			for j := range meanIn {
				if math.Abs(float64(meanIn[j]-wantMean)) > 1e-5 {
					report(rank, i, "all-reduce-mean mixed results")
					return
				}
			}
		}
	})
	for _, f := range failures {
		t.Errorf("rank %d iter %d: %s", f.rank, f.iter, f.what)
	}
}

// TestAsyncOverlapHidesCommCost checks the overlap cost model: a rank
// that posts a collective and then computes past the collective's
// completion time pays nothing at Wait, whereas the synchronous form
// serializes the full cost onto the clock.
func TestAsyncOverlapHidesCommCost(t *testing.T) {
	buf := make([]float32, 1<<20)
	dst := make([]float32, 1<<20)
	const flops = int64(1e13) // compute far longer than the collective

	// Synchronous: collective first, then compute → clock = cost + compute.
	mSync := cluster.NewMachine(cluster.Frontier(), 1, 0)
	gSync := NewGroup(mSync.Devices[:2])
	runSPMD(2, func(rank int) {
		gSync.AllReduceSumInto(rank, buf, dst)
		gSync.Device(rank).Compute(flops)
	})
	syncClock := mSync.MaxClock()

	// Asynchronous: post, compute, wait → the collective completes in
	// the shadow of the compute and the clock shows compute time only.
	mAsync := cluster.NewMachine(cluster.Frontier(), 1, 0)
	gAsync := NewGroup(mAsync.Devices[:2])
	runSPMD(2, func(rank int) {
		h := gAsync.IAllReduceSum(rank, buf, dst)
		gAsync.Device(rank).Compute(flops)
		h.Wait()
	})
	asyncClock := mAsync.MaxClock()

	computeTime := float64(flops) / (cluster.Frontier().PeakFLOPS * cluster.Frontier().Efficiency)
	if math.Abs(asyncClock-computeTime) > 1e-9*computeTime {
		t.Errorf("overlapped step clock %v, want compute-only %v (comm should be hidden)", asyncClock, computeTime)
	}
	if syncClock <= asyncClock {
		t.Errorf("sync clock %v should exceed overlapped clock %v", syncClock, asyncClock)
	}
	for _, d := range mAsync.Devices[:2] {
		if d.CommTime() != 0 {
			t.Errorf("fully hidden collective should charge no comm time, got %v", d.CommTime())
		}
	}
}

// TestAsyncCollectivesSerializeOnGroupStream checks that in-flight
// collectives on one group model a single communication stream: two
// posted back-to-back complete at the sum of their costs, not in
// parallel.
func TestAsyncCollectivesSerializeOnGroupStream(t *testing.T) {
	m := cluster.NewMachine(cluster.Frontier(), 1, 0)
	g := NewGroup(m.Devices[:2])
	buf := make([]float32, 1<<18)
	dst := make([]float32, 1<<18)
	dst2 := make([]float32, 1<<18)
	cost := g.cost(AllReduce, len(buf))
	runSPMD(2, func(rank int) {
		h1 := g.IAllReduceSum(rank, buf, dst)
		h2 := g.IAllReduceSum(rank, buf, dst2)
		h1.Wait()
		h2.Wait()
	})
	want := 2 * cost
	if got := m.MaxClock(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("two serialized collectives should finish at %v, got %v", want, got)
	}
}

// TestMismatchedCollectiveOrderPanics: posting different operation
// kinds at the same sequence position is an SPMD ordering violation
// and must fail loudly instead of mixing data.
func TestMismatchedCollectiveOrderPanics(t *testing.T) {
	g := newGroup(2)
	panics := make(chan bool, 2)
	runSPMD(2, func(rank int) {
		defer func() { panics <- recover() != nil }()
		buf := make([]float32, 4)
		dst := make([]float32, 4)
		if rank == 0 {
			g.IAllReduceSum(rank, buf, dst)
		} else {
			g.IAllGather(rank, buf, make([]float32, 8))
		}
	})
	count := 0
	for i := 0; i < 2; i++ {
		if <-panics {
			count++
		}
	}
	if count != 1 {
		t.Errorf("exactly the second poster should panic, got %d panics", count)
	}
}

// TestIntoCollectivesZeroAlloc pins the destination-passing
// collectives to zero steady-state allocations per operation: the
// pending records, inflight window, and reduction scratch must all
// recycle.
func TestIntoCollectivesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only valid in normal builds")
	}
	const ranks = 2
	g := newGroup(ranks)
	type job struct{ start, done chan struct{} }
	jobs := make([]job, ranks)
	bufs := make([][]float32, ranks)
	gathers := make([][]float32, ranks)
	for r := 0; r < ranks; r++ {
		jobs[r] = job{start: make(chan struct{}), done: make(chan struct{})}
		bufs[r] = make([]float32, 1<<10)
		gathers[r] = make([]float32, ranks<<10)
	}
	for r := 0; r < ranks; r++ {
		go func(rank int) {
			for range jobs[rank].start {
				h1 := g.IAllReduceSum(rank, bufs[rank], bufs[rank])
				h2 := g.IAllGather(rank, bufs[rank], gathers[rank])
				h1.Wait()
				h2.Wait()
				g.IReduceScatterMean(rank, gathers[rank], bufs[rank]).Wait()
				// The in-place forms and the nil destination.
				own := gathers[rank][rank<<10 : (rank+1)<<10]
				g.AllGatherInto(rank, own, gathers[rank])
				g.AllGatherInto(rank, own, nil)
				g.IReduceScatterMean(rank, gathers[rank], own).Wait()
				jobs[rank].done <- struct{}{}
			}
		}(r)
	}
	step := func() {
		for r := 0; r < ranks; r++ {
			jobs[r].start <- struct{}{}
		}
		for r := 0; r < ranks; r++ {
			<-jobs[r].done
		}
	}
	for i := 0; i < 3; i++ {
		step() // warm the pending free list and scratch
	}
	allocs := testing.AllocsPerRun(10, step)
	if allocs > 0 {
		t.Errorf("steady-state Into collectives allocate %.1f objects per step, want 0", allocs)
	}
	for r := 0; r < ranks; r++ {
		close(jobs[r].start)
	}
}
