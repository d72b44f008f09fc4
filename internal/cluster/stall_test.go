package cluster

import (
	"errors"
	"testing"
	"time"
)

// A stalled device parks its callers but keeps passing health checks —
// these tests pin down the stall lifecycle (stall → block → resume or
// kill) and the detection signals (LastProgress, InCommWait) the guard
// watchdog relies on.

func TestStallBlocksUntilResume(t *testing.T) {
	m := NewMachine(Frontier(), 1, 0)
	d := m.Devices[0]
	d.Stall()
	if !d.Stalled() {
		t.Fatal("device not stalled after Stall")
	}
	if !d.Alive() {
		t.Fatal("stalled device must still report alive — that is the point")
	}

	done := make(chan error, 1)
	go func() { done <- d.Alloc(1 << 10) }()
	select {
	case err := <-done:
		t.Fatalf("Alloc returned %v while stalled, want blocked", err)
	case <-time.After(20 * time.Millisecond):
	}

	d.Resume()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Alloc after Resume: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Alloc still blocked after Resume")
	}
	if d.Stalled() {
		t.Error("device still stalled after Resume")
	}
}

func TestStallKillUnblocksWithDeadDeviceError(t *testing.T) {
	m := NewMachine(Frontier(), 1, 0)
	d := m.Devices[1]
	d.Stall()

	done := make(chan error, 1)
	go func() { done <- d.Alloc(1 << 10) }()
	time.Sleep(20 * time.Millisecond)

	d.Kill()
	select {
	case err := <-done:
		var dead *DeadDeviceError
		if !errors.As(err, &dead) {
			t.Fatalf("Alloc after Kill during stall: got %v, want DeadDeviceError", err)
		}
		if dead.Device != 1 {
			t.Errorf("error identifies device %d, want 1", dead.Device)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Alloc still blocked after Kill")
	}
}

func TestStallAtTimeLatchesWhenClockPasses(t *testing.T) {
	m := NewMachine(Frontier(), 1, 0)
	d := m.Devices[0]
	// Simulated time to execute 0.5e9 FLOPs at sustained throughput.
	tStall := 0.5e9 / (d.Spec.PeakFLOPS * d.Spec.Efficiency)
	d.StallAtTime(tStall)
	if d.Stalled() {
		t.Fatal("device stalled before its clock reached the deadline")
	}
	d.Compute(1e9) // pushes the clock past tStall; the NEXT op blocks
	if !d.Stalled() {
		t.Fatal("device not stalled after its clock passed the deadline")
	}
	d.Resume()
	if d.Stalled() {
		t.Error("Resume did not clear a time-scheduled stall")
	}
}

func TestComputeOnStalledDeviceDoesNoWorkAfterKill(t *testing.T) {
	m := NewMachine(Frontier(), 1, 0)
	d := m.Devices[0]
	d.Stall()
	done := make(chan struct{})
	go func() { d.Compute(1e9); close(done) }()
	time.Sleep(20 * time.Millisecond)
	d.Kill()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Compute still blocked after Kill")
	}
	if d.FLOPs() != 0 {
		t.Errorf("Compute on a killed stall recorded %d FLOPs, want 0", d.FLOPs())
	}
}

func TestLastProgressAdvancesOnCompletedOps(t *testing.T) {
	m := NewMachine(Frontier(), 1, 0)
	d := m.Devices[0]
	if !d.LastProgress().IsZero() {
		t.Fatal("LastProgress non-zero before any operation")
	}
	before := time.Now()
	d.Compute(1e6)
	p1 := d.LastProgress()
	if p1.IsZero() || p1.Before(before.Add(-time.Second)) {
		t.Fatalf("LastProgress = %v after Compute, want recent wall-clock time", p1)
	}
	if err := d.Alloc(1 << 10); err != nil {
		t.Fatal(err)
	}
	if d.LastProgress().Before(p1) {
		t.Error("LastProgress went backwards after Alloc")
	}
}

func TestCommWaitBracketing(t *testing.T) {
	m := NewMachine(Frontier(), 1, 0)
	d := m.Devices[0]
	if d.InCommWait() {
		t.Fatal("InCommWait true before any bracket")
	}
	d.BeginCommWait()
	d.BeginCommWait() // nested collectives stack
	if !d.InCommWait() {
		t.Fatal("InCommWait false inside bracket")
	}
	d.EndCommWait()
	if !d.InCommWait() {
		t.Fatal("InCommWait false with one bracket still open")
	}
	d.EndCommWait()
	if d.InCommWait() {
		t.Fatal("InCommWait true after all brackets closed")
	}
}

func TestMachineStallDeviceAndNode(t *testing.T) {
	m := NewMachine(Frontier(), 2, 2)
	m.StallDevice(1)
	if !m.Devices[1].Stalled() {
		t.Error("StallDevice(1) did not stall device 1")
	}
	if m.Devices[0].Stalled() {
		t.Error("StallDevice(1) stalled device 0")
	}
	m.StallDevice(-1)             // no-op, matching KillDevice
	m.StallDevice(len(m.Devices)) // no-op
	m.StallNode(1)
	for _, d := range m.Devices {
		want := d.Node == 1 || d.ID == 1
		if d.Stalled() != want {
			t.Errorf("after StallNode(1): device %d (node %d) stalled=%v, want %v",
				d.ID, d.Node, d.Stalled(), want)
		}
	}
}

func TestInjectorStallAtStepFiresSilently(t *testing.T) {
	m := NewMachine(Frontier(), 2, 2)
	fi := NewFaultInjector()
	fi.StallDeviceAtStep(0, 3)
	fi.StallNodeAtStep(1, 5)

	if fi.FireStep(m, 2) {
		t.Fatal("FireStep(2) reported a kill; no fault due yet")
	}
	if m.Devices[0].Stalled() {
		t.Fatal("device 0 stalled before its step")
	}
	// Stall faults fire silently: the boundary must not see a kill.
	if fi.FireStep(m, 3) {
		t.Fatal("FireStep(3) reported a kill for a stall fault")
	}
	if !m.Devices[0].Stalled() {
		t.Fatal("device 0 not stalled at its scheduled step")
	}
	if fi.FireStep(m, 5) {
		t.Fatal("FireStep(5) reported a kill for a node stall fault")
	}
	for _, d := range m.Devices {
		if d.Node == 1 && !d.Stalled() {
			t.Errorf("device %d on node 1 not stalled by StallNodeAtStep", d.ID)
		}
	}
	// Already-fired faults stay fired on a later boundary.
	m.Devices[0].Resume()
	fi.FireStep(m, 10)
	if m.Devices[0].Stalled() {
		t.Error("resumed device re-stalled by an already-fired fault")
	}
}

func TestInjectorStallDeviceAtTimeArms(t *testing.T) {
	m := NewMachine(Frontier(), 1, 0)
	fi := NewFaultInjector()
	d := m.Devices[2]
	tStall := 0.5e9 / (d.Spec.PeakFLOPS * d.Spec.Efficiency)
	fi.StallDeviceAtTime(2, tStall)
	fi.Arm(m)
	if d.Stalled() {
		t.Fatal("device stalled before its clock reached the armed time")
	}
	d.Compute(1e9)
	if !d.Stalled() {
		t.Fatal("armed time stall did not latch after the clock passed it")
	}
}
