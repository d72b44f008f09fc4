package infer

import (
	"fmt"
	"sync"

	"orbit/internal/cluster"
	"orbit/internal/comm"
	"orbit/internal/nn"
	"orbit/internal/parallel"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

// TPForecaster runs a model's transformer trunk tensor-parallel over a
// simulated cluster group, forward-only: the serving path for models
// whose weights do not fit one device. Each TP rank owns the Megatron
// column/row shard of every block (parallel.NewTPBlock) with no
// gradient accumulators; the stem and head — a small fraction of the
// weights — run replicated on the driver through a forward-only model
// replica. Each block half's partial output is all-reduced before its
// residual join, so every rank holds the full activations and the
// driver's rank-0 stream feeds the head.
type TPForecaster struct {
	TP int

	rep     *vit.Model // forward-only stem+head replica
	machine *cluster.Machine
	group   *comm.Group
	ranks   [][]*nn.TransformerBlock // [rank][layer]

	mu   sync.Mutex // one forward at a time through the shared group
	outs []*tensor.Tensor
}

// NewTPForecaster shards m's blocks across a tp-wide tensor-parallel
// group on a simulated machine. tp must divide the head count (the
// architectural TP limit the paper contrasts with Hybrid-STOP).
func NewTPForecaster(m *vit.Model, tp int) (*TPForecaster, error) {
	if tp < 2 {
		return nil, fmt.Errorf("infer: TP forecaster needs tp >= 2, got %d", tp)
	}
	if m.Config.Heads%tp != 0 {
		return nil, fmt.Errorf("infer: %d heads not divisible by TP size %d", m.Config.Heads, tp)
	}
	spec := cluster.Frontier()
	f := &TPForecaster{
		TP:      tp,
		rep:     m.InferenceReplica(),
		machine: cluster.NewMachine(spec, 1, tp),
	}
	f.group = comm.NewGroup(f.machine.Devices[:tp])
	f.ranks = make([][]*nn.TransformerBlock, tp)
	for r := 0; r < tp; r++ {
		for _, ref := range m.Blocks {
			b := parallel.NewTPBlock(r, tp, ref)
			// Forward-only: drop the shard gradient mirrors.
			for _, p := range b.Params() {
				p.Grad = nil
			}
			f.ranks[r] = append(f.ranks[r], b)
		}
	}
	f.outs = make([]*tensor.Tensor, tp)
	return f, nil
}

// Machine returns the simulated cluster backing the forecaster's TP
// group. Fault-injection harnesses use it to kill serving devices
// (cluster.FaultInjector.Arm, Device.Kill) the same way the elastic
// trainer's chaos tests do.
func (f *TPForecaster) Machine() *cluster.Machine { return f.machine }

// Machine returns the simulated cluster machine backing a TP-sharded
// engine, nil for single-device engines (which run in-process and
// have no simulated hardware to fail).
func (e *Engine) Machine() *cluster.Machine {
	if e.tp == nil {
		return nil
	}
	return e.tp.machine
}

// CheckHealth returns a *cluster.DeadDeviceError when any device
// backing the engine has been killed by fault injection, nil for
// healthy (and for single-device) engines. Like the elastic trainer,
// serving health is checked at batch boundaries: an in-flight forward
// on a just-killed device completes (the SPMD walk cannot deadlock on
// a latched death), and the next health check observes the loss.
func (e *Engine) CheckHealth() error {
	if e.tp == nil {
		return nil
	}
	for _, d := range e.tp.machine.Devices {
		if err := d.CheckAlive(); err != nil {
			return err
		}
	}
	return nil
}

// Forward runs one sample [C, H, W] through the TP-sharded trunk,
// producing [OutC, H, W]. The result is head-owned and valid until the
// forecaster's next call. Within each block, partial sums are reduced
// across ranks in rank order, so the output matches the single-device
// forward to float summation-order tolerance (the equivalence test
// pins 1e-6).
func (f *TPForecaster) Forward(x *tensor.Tensor, leadHours float64) *tensor.Tensor {
	f.mu.Lock()
	defer f.mu.Unlock()
	tok := f.rep.Agg.Forward(f.rep.Patch.Forward(x))
	tok = f.rep.Pos.Forward(tok)
	tok = f.rep.Lead.ForwardWithLead(tok, leadHours)

	// SPMD over the TP group: every rank walks its shard of the block
	// stack, summing each half's partial across the group in place.
	var wg sync.WaitGroup
	for r := 0; r < f.TP; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := tok
			for _, b := range f.ranks[r] {
				for k := 0; k < 2; k++ {
					b.Half(k, h)
					p := b.Partial(k)
					f.group.AllReduceSumInto(r, p, p)
					h = b.Join(k)
				}
			}
			f.outs[r] = h
		}(r)
	}
	wg.Wait()
	return f.rep.Head.Forward(f.outs[0])
}
