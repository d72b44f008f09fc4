// Package cluster simulates the machine ORBIT was trained on: a
// Frontier-like supercomputer with 8 GPUs (MI250X GCDs) per node,
// 64 GB of memory per GPU, Infinity Fabric links inside a node and a
// Slingshot-11 interconnect between nodes (paper Sec. IV "System
// Details"). Simulated devices account memory allocations (failing
// with an out-of-memory error exactly as a real GPU would), count
// floating-point operations, and carry a simulated clock advanced by
// compute and communication costs, so parallelism experiments produce
// emergent OOM and timing behaviour instead of scripted numbers.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Spec describes the hardware characteristics of the simulated
// machine.
type Spec struct {
	Name        string
	GPUsPerNode int
	// MemPerGPU is the device memory capacity in bytes.
	MemPerGPU int64
	// PeakFLOPS is the per-GPU peak throughput (bf16 FLOP/s).
	PeakFLOPS float64
	// Efficiency is the achievable fraction of peak for transformer
	// workloads (model FLOPs utilization).
	Efficiency float64
	// IntraNodeBandwidth / Latency describe GPU-GPU links within a
	// node (Infinity Fabric).
	IntraNodeBandwidth float64 // bytes/s
	IntraNodeLatency   float64 // seconds
	// InterNodeBandwidth / Latency describe node-to-node links
	// (Slingshot-11), per GPU share.
	InterNodeBandwidth float64
	InterNodeLatency   float64
}

// Frontier returns the specification of the OLCF Frontier system used
// in the paper: MI250X GCDs (one GCD = one logical GPU), 64 GB each,
// 50 GB/s Infinity Fabric between GCDs, 100 GB/s Slingshot-11 per node
// (12.5 GB/s per-GPU share). Peak bf16 throughput per GCD is
// ~191.5 TFLOP/s; sustained transformer efficiency on Frontier-class
// systems lands near 30 % of peak, the value that calibrates the
// analytical model to the paper's reported 684 PFLOPS / 1.6 EFLOPS.
func Frontier() Spec {
	return Spec{
		Name:               "Frontier",
		GPUsPerNode:        8,
		MemPerGPU:          64 << 30,
		PeakFLOPS:          191.5e12,
		Efficiency:         0.30,
		IntraNodeBandwidth: 50e9,
		IntraNodeLatency:   2e-6,
		InterNodeBandwidth: 12.5e9,
		InterNodeLatency:   10e-6,
	}
}

// ComputeSeconds is the time flops of work take at sustained
// throughput.
func (s Spec) ComputeSeconds(flops int64) float64 {
	return float64(flops) / (s.PeakFLOPS * s.Efficiency)
}

// OOMError reports a simulated out-of-memory condition.
type OOMError struct {
	Device    int
	Requested int64
	Used      int64
	Capacity  int64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("cluster: device %d out of memory: requested %d, used %d of %d",
		e.Device, e.Requested, e.Used, e.Capacity)
}

// DeadDeviceError reports an operation on a device that has been
// killed by fault injection — the simulated equivalent of a GPU
// falling off the bus or its node crashing. It surfaces from memory
// and compute operations exactly the way OOMError does.
type DeadDeviceError struct {
	Device int
	Node   int
}

func (e *DeadDeviceError) Error() string {
	return fmt.Sprintf("cluster: device %d (node %d) is dead", e.Device, e.Node)
}

// Device is one simulated GPU.
type Device struct {
	ID   int
	Node int
	Spec Spec

	mu       sync.Mutex
	memUsed  int64
	memPeak  int64
	flops    int64
	clock    float64
	commTime float64
	dead     bool
	// killAtTime, when positive, schedules the device to die as soon
	// as its simulated clock reaches that time (checked at the next
	// memory or health operation, like a node crash noticed at the
	// next RCCL call).
	killAtTime float64
	// stalled / stallAtTime model a hung-but-alive device (stall.go):
	// operations block on cond until Kill or Resume. cond is created
	// lazily so Device literals in tests keep working.
	stalled     bool
	stallAtTime float64
	cond        *sync.Cond
	// lastOp / commWait are straggler-detection signals (stall.go),
	// atomics so a supervisor polls them without taking d.mu.
	lastOp   atomic.Int64
	commWait atomic.Int32
}

// Kill marks the device dead immediately. Subsequent Alloc and
// CheckAlive calls return *DeadDeviceError.
// Operations blocked on a stall are woken and return the error — a
// kill is the only way a stalled rank's step ever terminates.
func (d *Device) Kill() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dead = true
	if d.cond != nil {
		d.cond.Broadcast()
	}
}

// KillAtTime schedules the device to die once its simulated clock
// reaches t (seconds). The death takes effect at the next operation
// that checks health.
func (d *Device) KillAtTime(t float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.killAtTime = t
}

// evalDeathLocked evaluates (and latches) the device's time-scheduled
// death condition. Caller holds d.mu. Only health checks evaluate the
// time trigger: a device whose clock passed the deadline mid-step
// "dies" silently and is noticed at the next CheckAlive — the way a
// node crash is noticed by the job's health monitor, not by the
// in-flight collective. Alloc only observes the latched flag, so SPMD
// peers of a just-dead rank cannot be left stranded in a rendezvous
// mid-step.
func (d *Device) evalDeathLocked() bool {
	if d.killAtTime > 0 && d.clock >= d.killAtTime {
		d.dead = true
	}
	return d.dead
}

// CheckAlive returns *DeadDeviceError when the device has been killed
// (directly or by a scheduled time-based fault), nil otherwise.
func (d *Device) CheckAlive() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.evalDeathLocked() {
		return &DeadDeviceError{Device: d.ID, Node: d.Node}
	}
	return nil
}

// Alive reports whether the device is still healthy.
func (d *Device) Alive() bool { return d.CheckAlive() == nil }

// Alloc reserves bytes of device memory, returning *OOMError when the
// capacity would be exceeded and *DeadDeviceError when the device has
// been killed by fault injection.
func (d *Device) Alloc(bytes int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return &DeadDeviceError{Device: d.ID, Node: d.Node}
	}
	if err := d.waitWhileStalledLocked(); err != nil {
		return err
	}
	if d.memUsed+bytes > d.Spec.MemPerGPU {
		return &OOMError{Device: d.ID, Requested: bytes, Used: d.memUsed, Capacity: d.Spec.MemPerGPU}
	}
	d.memUsed += bytes
	if d.memUsed > d.memPeak {
		d.memPeak = d.memUsed
	}
	d.touchProgress()
	return nil
}

// Free releases bytes of device memory.
func (d *Device) Free(bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.memUsed -= bytes
	if d.memUsed < 0 {
		panic(fmt.Sprintf("cluster: device %d freed more than allocated", d.ID))
	}
}

// MemUsed returns current allocated bytes.
func (d *Device) MemUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.memUsed
}

// MemPeak returns the high-water mark of allocated bytes.
func (d *Device) MemPeak() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.memPeak
}

// Compute records flops of work and advances the device clock by the
// corresponding time at sustained throughput. A stalled device parks
// the caller like Alloc; if the stall ends in a kill,
// Compute returns silently having done no work and the death surfaces
// at the caller's next checked operation.
func (d *Device) Compute(flops int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.waitWhileStalledLocked() != nil {
		return
	}
	d.flops += flops
	d.clock += d.Spec.ComputeSeconds(flops)
	d.touchProgress()
}

// FLOPs returns the cumulative operation count.
func (d *Device) FLOPs() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flops
}

// Clock returns the device's simulated time in seconds.
func (d *Device) Clock() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clock
}

// CommTime returns the cumulative time attributed to communication.
func (d *Device) CommTime() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.commTime
}

// AdvanceTo moves the clock forward to at least t, attributing the
// wait to communication. Collectives use this to synchronize group
// members.
func (d *Device) AdvanceTo(t float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t > d.clock {
		d.commTime += t - d.clock
		d.clock = t
	}
}

// Machine is a collection of simulated devices with node structure.
type Machine struct {
	Spec    Spec
	Devices []*Device
}

// NewMachine builds nodes×gpusPerNode devices. gpusPerNode of 0 uses
// the spec's value.
func NewMachine(spec Spec, nodes int, gpusPerNode int) *Machine {
	if gpusPerNode == 0 {
		gpusPerNode = spec.GPUsPerNode
	}
	m := &Machine{Spec: spec}
	for n := 0; n < nodes; n++ {
		for g := 0; g < gpusPerNode; g++ {
			m.Devices = append(m.Devices, &Device{ID: n*gpusPerNode + g, Node: n, Spec: spec})
		}
	}
	return m
}

// SameNode reports whether all listed devices live on one node.
func SameNode(devs []*Device) bool {
	for _, d := range devs[1:] {
		if d.Node != devs[0].Node {
			return false
		}
	}
	return true
}

// MaxClock returns the latest clock across devices: the simulated
// wall time of an SPMD program.
func (m *Machine) MaxClock() float64 {
	var t float64
	for _, d := range m.Devices {
		if c := d.Clock(); c > t {
			t = c
		}
	}
	return t
}

// MaxMemPeak returns the largest per-device memory high-water mark.
func (m *Machine) MaxMemPeak() int64 {
	var v int64
	for _, d := range m.Devices {
		if p := d.MemPeak(); p > v {
			v = p
		}
	}
	return v
}

// TotalFLOPs sums operation counts over devices.
func (m *Machine) TotalFLOPs() int64 {
	var f int64
	for _, d := range m.Devices {
		f += d.FLOPs()
	}
	return f
}

// Nodes returns the number of nodes the machine's devices span.
func (m *Machine) Nodes() int {
	n := 0
	for _, d := range m.Devices {
		if d.Node+1 > n {
			n = d.Node + 1
		}
	}
	return n
}

// KillDevice kills device id (no-op for out-of-range ids, so fault
// plans survive machine shrinkage).
func (m *Machine) KillDevice(id int) {
	if id >= 0 && id < len(m.Devices) {
		m.Devices[id].Kill()
	}
}

// KillNode kills every device on a node — the whole-node failure mode
// that dominates on Frontier-class machines.
func (m *Machine) KillNode(node int) {
	for _, d := range m.Devices {
		if d.Node == node {
			d.Kill()
		}
	}
}

// FirstDead returns the lowest dead device id, or -1 when the machine
// is healthy. Time-scheduled kills whose deadline has passed are
// counted (and latched) here, so a health check at a step boundary
// observes them.
func (m *Machine) FirstDead() int {
	for _, d := range m.Devices {
		if !d.Alive() {
			return d.ID
		}
	}
	return -1
}

// Fault is one scheduled failure: at simulated-training Step (when
// Step >= 0) or simulated Time (seconds, when Time > 0), the target
// device — or the whole Node when Device is negative — is killed, or
// stalled when Stall is set (hung-but-alive, see stall.go).
type Fault struct {
	Step   int // trigger step; -1 disables step triggering
	Time   float64
	Device int // device id, or -1 to target the whole Node
	Node   int
	Stall  bool // stall instead of kill
}

// FaultInjector schedules device/node kills against a machine. Step
// triggers fire when the training loop calls FireStep at each step
// boundary; time triggers are armed onto the devices themselves and
// fire as the simulated clock passes them. Each fault fires at most
// once, even across machine rebuilds.
type FaultInjector struct {
	mu     sync.Mutex
	faults []Fault
	fired  []bool
}

// NewFaultInjector builds an empty injector.
func NewFaultInjector() *FaultInjector { return &FaultInjector{} }

// KillDeviceAtStep schedules device id to die at the given step.
func (fi *FaultInjector) KillDeviceAtStep(id, step int) {
	fi.add(Fault{Step: step, Device: id, Node: -1})
}

// KillNodeAtStep schedules a whole node to die at the given step.
func (fi *FaultInjector) KillNodeAtStep(node, step int) {
	fi.add(Fault{Step: step, Device: -1, Node: node})
}

// KillDeviceAtTime schedules device id to die when its simulated
// clock reaches t seconds; call Arm after (re)building the machine.
func (fi *FaultInjector) KillDeviceAtTime(id int, t float64) {
	fi.add(Fault{Step: -1, Time: t, Device: id, Node: -1})
}

func (fi *FaultInjector) add(f Fault) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.faults = append(fi.faults, f)
	fi.fired = append(fi.fired, false)
}

// Arm applies pending time-based faults to the machine's devices.
func (fi *FaultInjector) Arm(m *Machine) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	for i, f := range fi.faults {
		if fi.fired[i] || f.Time <= 0 || f.Step >= 0 {
			continue
		}
		if f.Device >= 0 && f.Device < len(m.Devices) {
			if f.Stall {
				m.Devices[f.Device].StallAtTime(f.Time)
			} else {
				m.Devices[f.Device].KillAtTime(f.Time)
			}
		}
	}
}

// FireStep triggers every not-yet-fired step fault with Step <= step,
// returning true when any kill fired. Call at each training-step
// boundary. Stall faults fire silently — the training loop noticing a
// stall at the boundary would defeat the failure mode they model.
func (fi *FaultInjector) FireStep(m *Machine, step int) bool {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	any := false
	for i, f := range fi.faults {
		if fi.fired[i] || f.Step < 0 || f.Step > step {
			continue
		}
		switch {
		case f.Stall && f.Device >= 0:
			m.StallDevice(f.Device)
		case f.Stall:
			m.StallNode(f.Node)
		case f.Device >= 0:
			m.KillDevice(f.Device)
			any = true
		default:
			m.KillNode(f.Node)
			any = true
		}
		fi.fired[i] = true
	}
	return any
}

// MarkTimeFaultsFired records time faults whose device has died so a
// rebuilt (renumbered) machine is not re-armed with stale kills.
func (fi *FaultInjector) MarkTimeFaultsFired(m *Machine) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	for i, f := range fi.faults {
		if fi.fired[i] || f.Time <= 0 || f.Step >= 0 {
			continue
		}
		if f.Device >= 0 && f.Device < len(m.Devices) && !m.Devices[f.Device].Alive() {
			fi.fired[i] = true
		}
	}
}
