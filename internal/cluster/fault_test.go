package cluster

import (
	"errors"
	"testing"
)

func TestKillSurfacesAsDeadDeviceError(t *testing.T) {
	m := NewMachine(Frontier(), 1, 0)
	d := m.Devices[3]
	if err := d.Alloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	d.Kill()
	err := d.Alloc(1)
	var dead *DeadDeviceError
	if !errors.As(err, &dead) {
		t.Fatalf("Alloc on dead device: got %v, want DeadDeviceError", err)
	}
	if dead.Device != 3 || dead.Node != 0 {
		t.Errorf("error identifies device %d node %d, want 3/0", dead.Device, dead.Node)
	}
	if err := d.CheckAlive(); !errors.As(err, &dead) {
		t.Errorf("CheckAlive on dead device: got %v, want DeadDeviceError", err)
	}
}

func TestKillAtTimeFiresWhenClockPasses(t *testing.T) {
	m := NewMachine(Frontier(), 1, 0)
	d := m.Devices[0]
	// Time to compute 1e9 FLOPs at sustained throughput.
	tDeath := 0.5e9 / (d.Spec.PeakFLOPS * d.Spec.Efficiency)
	d.KillAtTime(tDeath)
	if !d.Alive() {
		t.Fatal("device dead before its clock reached the deadline")
	}
	d.Compute(1e9) // pushes the clock past tDeath
	if d.Alive() {
		t.Fatal("device alive after its clock passed the deadline")
	}
	if m.FirstDead() != 0 {
		t.Errorf("FirstDead = %d, want 0", m.FirstDead())
	}
}

func TestKillNodeKillsAllItsDevices(t *testing.T) {
	m := NewMachine(Frontier(), 2, 0)
	m.KillNode(1)
	for _, d := range m.Devices {
		if d.Node == 1 && d.Alive() {
			t.Errorf("device %d on killed node still alive", d.ID)
		}
		if d.Node == 0 && !d.Alive() {
			t.Errorf("device %d on healthy node dead", d.ID)
		}
	}
	if got := m.FirstDead(); got != 8 {
		t.Errorf("FirstDead = %d, want 8", got)
	}
}

func TestFaultInjectorStepTrigger(t *testing.T) {
	m := NewMachine(Frontier(), 2, 0)
	fi := NewFaultInjector()
	fi.KillNodeAtStep(1, 5)
	fi.KillDeviceAtStep(2, 7)
	for s := 0; s < 5; s++ {
		if fi.FireStep(m, s) {
			t.Fatalf("fault fired early at step %d", s)
		}
	}
	if !fi.FireStep(m, 5) {
		t.Fatal("node fault did not fire at its step")
	}
	if m.Devices[8].Alive() || m.Devices[2].Alive() == false {
		t.Fatal("wrong devices affected at step 5")
	}
	// Firing is one-shot: re-firing the same step is a no-op.
	if fi.FireStep(m, 5) {
		t.Error("fault fired twice")
	}
	if !fi.FireStep(m, 9) {
		t.Fatal("device fault with Step <= step did not fire")
	}
	if m.Devices[2].Alive() {
		t.Error("device 2 should be dead after its fault fired")
	}
}

func TestFaultInjectorTimeTrigger(t *testing.T) {
	m := NewMachine(Frontier(), 1, 0)
	fi := NewFaultInjector()
	d := m.Devices[0]
	tDeath := 0.5e9 / (d.Spec.PeakFLOPS * d.Spec.Efficiency)
	fi.KillDeviceAtTime(0, tDeath)
	fi.Arm(m)
	if m.FirstDead() != -1 {
		t.Fatal("device dead before clock advanced")
	}
	d.Compute(1e9)
	if m.FirstDead() != 0 {
		t.Fatal("armed time fault did not fire")
	}
	fi.MarkTimeFaultsFired(m)
	// A rebuilt machine must not inherit the already-fired fault.
	m2 := NewMachine(Frontier(), 1, 0)
	fi.Arm(m2)
	m2.Devices[0].Compute(1e9)
	if m2.FirstDead() != -1 {
		t.Error("fired time fault re-armed onto rebuilt machine")
	}
}

func TestNodesCount(t *testing.T) {
	if n := NewMachine(Frontier(), 3, 0).Nodes(); n != 3 {
		t.Errorf("Nodes = %d, want 3", n)
	}
}
