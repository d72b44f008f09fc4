package comm

import (
	"math"
	"testing"

	"orbit/internal/cluster"
)

func TestSendRecvMovesData(t *testing.T) {
	g := newGroup(2)
	dst := make([]float32, 3)
	runSPMD(2, func(rank int) {
		if rank == 0 {
			g.SendTo(0, []float32{1, 2, 3})
		} else {
			g.RecvFrom(1, dst)
		}
	})
	for i, w := range []float32{1, 2, 3} {
		if dst[i] != w {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], w)
		}
	}
}

func TestSendRecvEitherDirection(t *testing.T) {
	// The sender is identified by which rank posted a source buffer,
	// not by its index in the group, so one link group carries sends
	// from either endpoint (though dedicated per-direction groups are
	// the canonical arrangement).
	g := newGroup(2)
	dst := make([]float32, 2)
	runSPMD(2, func(rank int) {
		if rank == 1 {
			g.SendTo(1, []float32{7, 8})
		} else {
			g.RecvFrom(0, dst)
		}
	})
	if dst[0] != 7 || dst[1] != 8 {
		t.Fatalf("dst = %v, want [7 8]", dst)
	}
}

func TestSendCostIsStoreAndForward(t *testing.T) {
	// A p2p message pays latency + bytes/bandwidth on the link class
	// the group spans — not the ring-collective cost.
	m := cluster.NewMachine(cluster.Frontier(), 2, 1) // one GPU per node: inter-node link
	g := NewGroup(m.Devices[:2])
	n := 1 << 16
	runSPMD(2, func(rank int) {
		if rank == 0 {
			g.SendTo(0, make([]float32, n))
		} else {
			g.RecvFrom(1, make([]float32, n))
		}
	})
	spec := cluster.Frontier()
	want := spec.InterNodeLatency + float64(4*n)/spec.InterNodeBandwidth
	for r := 0; r < 2; r++ {
		if got := m.Devices[r].Clock(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("rank %d clock = %v, want %v", r, got, want)
		}
	}
}

func TestAsyncSendOverlapsCompute(t *testing.T) {
	// The sender posts, computes for longer than the transfer, then
	// waits: the wait must cost nothing extra (the transfer is hidden
	// behind compute), which is the overlap 1F1B stage compute relies
	// on.
	m := cluster.NewMachine(cluster.Frontier(), 1, 0)
	g := NewGroup(m.Devices[:2])
	const computeSec = 1.0
	runSPMD(2, func(rank int) {
		if rank == 0 {
			h := g.ISend(0, []float32{1, 2, 3, 4})
			m.Devices[0].AdvanceTo(computeSec)
			h.Wait()
		} else {
			h := g.IRecv(1, make([]float32, 4))
			m.Devices[1].AdvanceTo(computeSec)
			h.Wait()
		}
	})
	for r := 0; r < 2; r++ {
		if got := m.Devices[r].Clock(); got != computeSec {
			t.Fatalf("rank %d clock = %v, want %v (transfer not hidden)", r, got, computeSec)
		}
	}
}

func TestSendRecvDataIsCopiedAtRendezvous(t *testing.T) {
	// The receiver sees the sender's buffer as of rendezvous time; the
	// copy lands in the receiver's own storage, so later writes to the
	// sender's buffer (after Wait) don't alias through.
	g := newGroup(2)
	src := []float32{5, 6}
	dst := make([]float32, 2)
	runSPMD(2, func(rank int) {
		if rank == 0 {
			g.SendTo(0, src)
		} else {
			g.RecvFrom(1, dst)
		}
	})
	src[0] = 99
	if dst[0] != 5 || dst[1] != 6 {
		t.Fatalf("dst = %v, want [5 6]", dst)
	}
}

func TestSendWithoutReceiverPanics(t *testing.T) {
	// Posting never blocks, so both endpoints can be driven from one
	// goroutine; the rendezvous (second post) must panic when both
	// sides claim to be the sender.
	g := newGroup(2)
	defer func() {
		if recover() == nil {
			t.Fatal("two senders with no receiver completed without panic")
		}
	}()
	_ = g.ISend(0, []float32{1})
	_ = g.ISend(1, []float32{1})
}

func TestSendLengthMismatchPanics(t *testing.T) {
	// A length mismatch shows up as a modeled-cost divergence at the
	// second post — the standard SPMD ordering-violation panic.
	g := newGroup(2)
	defer func() {
		if recover() == nil {
			t.Fatal("length-mismatched send/recv completed without panic")
		}
	}()
	_ = g.ISend(0, []float32{1, 2, 3})
	_ = g.IRecv(1, make([]float32, 2))
}

func TestSendNilBuffersPanic(t *testing.T) {
	g := newGroup(2)
	for name, f := range map[string]func(){
		"ISend": func() { g.ISend(0, nil) },
		"IRecv": func() { g.IRecv(0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s(nil) did not panic", name)
				}
			}()
			f()
		}()
	}
}
