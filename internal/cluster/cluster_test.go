package cluster

import (
	"errors"
	"testing"
)

func TestNewMachineLayout(t *testing.T) {
	m := NewMachine(Frontier(), 2, 0)
	if len(m.Devices) != 16 {
		t.Fatalf("%d devices, want 16", len(m.Devices))
	}
	if m.Devices[7].Node != 0 || m.Devices[8].Node != 1 {
		t.Error("node assignment wrong at boundary")
	}
	if m.Devices[15].ID != 15 {
		t.Error("device IDs should be sequential")
	}
}

func TestAllocFreeAccounting(t *testing.T) {
	d := &Device{Spec: Spec{MemPerGPU: 100}}
	if err := d.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(50); err == nil {
		t.Fatal("expected OOM")
	}
	var oom *OOMError
	err := d.Alloc(50)
	if !errors.As(err, &oom) {
		t.Fatalf("error type %T", err)
	}
	if oom.Requested != 50 || oom.Used != 60 {
		t.Errorf("OOM details %+v", oom)
	}
	d.Free(30)
	if err := d.Alloc(50); err != nil {
		t.Errorf("alloc after free failed: %v", err)
	}
	if d.MemUsed() != 80 {
		t.Errorf("MemUsed = %d, want 80", d.MemUsed())
	}
	if d.MemPeak() != 80 {
		t.Errorf("MemPeak = %d, want 80", d.MemPeak())
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	d := &Device{Spec: Spec{MemPerGPU: 100}}
	if err := d.Alloc(70); err != nil {
		t.Fatal(err)
	}
	d.Free(70)
	if err := d.Alloc(10); err != nil {
		t.Fatal(err)
	}
	if d.MemPeak() != 70 {
		t.Errorf("MemPeak = %d, want 70", d.MemPeak())
	}
}

func TestOverFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-free")
		}
	}()
	d := &Device{Spec: Spec{MemPerGPU: 100}}
	d.Free(1)
}

func TestComputeAdvancesClock(t *testing.T) {
	d := &Device{Spec: Spec{PeakFLOPS: 100, Efficiency: 0.5}}
	d.Compute(200) // 200 flops at 50 flop/s = 4 s
	if d.Clock() != 4 {
		t.Errorf("Clock = %v, want 4", d.Clock())
	}
	if d.FLOPs() != 200 {
		t.Errorf("FLOPs = %d", d.FLOPs())
	}
}

func TestAdvanceToSynchronizes(t *testing.T) {
	d := &Device{Spec: Spec{PeakFLOPS: 1, Efficiency: 1}}
	d.Compute(2) // clock = 2
	d.AdvanceTo(5)
	if d.Clock() != 5 || d.CommTime() != 3 { // 3 of wait
		t.Errorf("AdvanceTo(5): clock %v, comm %v, want 5, 3", d.Clock(), d.CommTime())
	}
	// Advancing to the past moves nothing.
	d.AdvanceTo(1)
	if d.Clock() != 5 || d.CommTime() != 3 {
		t.Errorf("AdvanceTo(past): clock %v, comm %v, want 5, 3", d.Clock(), d.CommTime())
	}
}

func TestSameNode(t *testing.T) {
	m := NewMachine(Frontier(), 2, 0)
	if !SameNode(m.Devices[:8]) {
		t.Error("first 8 devices share node 0")
	}
	if SameNode(m.Devices[4:12]) {
		t.Error("devices spanning nodes misreported")
	}
}

func TestMachineAggregates(t *testing.T) {
	m := NewMachine(Spec{PeakFLOPS: 1, Efficiency: 1, MemPerGPU: 100, GPUsPerNode: 2}, 2, 0)
	m.Devices[0].Compute(3)
	m.Devices[3].Compute(7)
	if err := m.Devices[1].Alloc(55); err != nil {
		t.Fatal(err)
	}
	if m.MaxClock() != 7 {
		t.Errorf("MaxClock = %v", m.MaxClock())
	}
	if m.TotalFLOPs() != 10 {
		t.Errorf("TotalFLOPs = %d", m.TotalFLOPs())
	}
	if m.MaxMemPeak() != 55 {
		t.Errorf("MaxMemPeak = %d", m.MaxMemPeak())
	}
}

func TestFrontierSpecSanity(t *testing.T) {
	s := Frontier()
	if s.GPUsPerNode != 8 {
		t.Errorf("GPUsPerNode = %d", s.GPUsPerNode)
	}
	if s.MemPerGPU != 64<<30 {
		t.Errorf("MemPerGPU = %d", s.MemPerGPU)
	}
	if s.IntraNodeBandwidth <= s.InterNodeBandwidth {
		t.Error("intra-node links should be faster than per-GPU inter-node share")
	}
	if s.IntraNodeLatency >= s.InterNodeLatency {
		t.Error("intra-node latency should be lower")
	}
}
