package serve

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"orbit/internal/cluster"
	"orbit/internal/infer"
)

// TestChaosTPReplicaKilledMidBatch is the serving chaos drill: two
// TP=2 replicas, each first plugged with one held request so that the
// eight requests of the drill queue; then PR 3's cluster fault injector
// arms a time-kill on a device of replica 0's simulated machine, a hair
// past the device's current simulated clock. The clock only advances
// while a forward is in flight, so the kill fires *during* replica 0's
// next batch — the first four queued requests — and latches at the
// post-batch health check: the batch's results are discarded and its
// requests go back to the head of the queue, which replica 1 drains
// once its plug clears. Both replicas shard the same model with the
// same TP width, so the reduction order is identical and the retried
// results must be bit-identical to a run that never saw a fault. No
// request may be lost.
func TestChaosTPReplicaKilledMidBatch(t *testing.T) {
	m, sc := fixtureModel(t, 29)

	// Baseline: an identical TP=2 pool with no faults.
	base := newReplica(t, 0, m, sc, 4, 2)
	want := make(map[int][]infer.StepScore)
	for i := 0; i < 8; i++ {
		want[i] = base.Engine.ScoredRollout(sc, i, 1+i%3)
	}

	repA := newReplica(t, 0, m, sc, 4, 2)
	repB := newReplica(t, 1, m, sc, 4, 2)
	gA, gB := gateReplica(repA), gateReplica(repB)
	s, err := NewServer(Config{MaxBatch: 4}, []*Replica{repA, repB})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	plugs := plug(t, s, gA, gB)
	const n = 8
	queued := make([]<-chan outcome, n)
	for i := range queued {
		queued[i] = submit(t, s, context.Background(), Request{Start: i, Steps: 1 + i%3}, 3+i)
	}
	// A's plug is past its forward, so it still passes its health check;
	// any further forward on A straddles the kill.
	inj := cluster.NewFaultInjector()
	inj.KillDeviceAtTime(0, repA.Engine.Machine().Devices[0].Clock()+1e-12)
	inj.Arm(repA.Engine.Machine())
	gA.open()
	waitFor(t, "replica A's batch to fail", func() bool { return s.Stats().ReplicaFailures == 1 })
	gB.open()

	for i, p := range plugs {
		if o := <-p; o.err != nil || o.resp.Retries != 0 || o.resp.Replica != i {
			t.Fatalf("plug %d: %+v, %v", i, o.resp, o.err)
		}
	}
	for i, q := range queued {
		o := <-q
		if o.err != nil {
			t.Fatalf("request %d lost to the fault: %v", i, o.err)
		}
		r := o.resp
		if !reflect.DeepEqual(r.Scores, want[i]) {
			t.Fatalf("request %d: post-failover scores differ from the no-fault baseline (replica %d, retries %d)",
				i, r.Replica, r.Retries)
		}
		// Requests 0–3 were the batch on A when it died; 4–7 went
		// straight to B once its plug cleared.
		if wantRetries := 1 - i/4; r.Retries != wantRetries || r.Replica != repB.ID || r.Coalesced != 4 {
			t.Fatalf("request %d: %+v; want a batch of 4 on replica %d after %d failovers", i, r, repB.ID, wantRetries)
		}
	}
	st := s.Stats()
	if st.ReplicaFailures != 1 || st.Retries != 1 {
		t.Fatalf("failover not recorded in stats: %+v", st)
	}
	if st.HealthyReplicas != 1 {
		t.Fatalf("killed TP replica still counted healthy: %+v", st)
	}
	var dde *cluster.DeadDeviceError
	if err := repA.checkErr(); !errors.As(err, &dde) {
		t.Fatalf("replica A's death should surface the cluster fault, got %v", err)
	}
	if repA.Engine.Machine().FirstDead() < 0 {
		t.Fatal("injected device not dead on the simulated machine")
	}
}

// TestChaosPoolExhaustion kills every replica's cluster and proves
// requests fail fast with ErrNoHealthyReplica — bounded failure, not a
// hang.
func TestChaosPoolExhaustion(t *testing.T) {
	m, sc := fixtureModel(t, 30)
	repA := newReplica(t, 0, m, sc, 4, 2)
	repB := newReplica(t, 1, m, sc, 4, 2)
	s, err := NewServer(Config{MaxBatch: 4}, []*Replica{repA, repB})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Warm path first: both replicas healthy.
	if _, err := s.Do(context.Background(), Request{Start: 0, Steps: 1}); err != nil {
		t.Fatalf("healthy pool refused a request: %v", err)
	}
	repA.Engine.Machine().KillDevice(0)
	repB.Engine.Machine().KillDevice(1)
	if _, err := s.Do(context.Background(), Request{Start: 1, Steps: 1}); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("exhausted pool: got %v, want ErrNoHealthyReplica", err)
	}
	if st := s.Stats(); st.HealthyReplicas != 0 {
		t.Fatalf("dead pool reports %d healthy replicas", st.HealthyReplicas)
	}
}
