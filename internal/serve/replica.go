package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"orbit/internal/infer"
	"orbit/internal/tensor"
)

// DeadReplicaError reports a replica unavailable for serving: killed
// by cluster fault injection (a TP-sharded replica losing a simulated
// device), by Kill, or latched dead after a failed batch.
type DeadReplicaError struct {
	Replica int
	Cause   error
}

func (e *DeadReplicaError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("serve: replica %d dead: %v", e.Replica, e.Cause)
	}
	return fmt.Sprintf("serve: replica %d dead", e.Replica)
}

func (e *DeadReplicaError) Unwrap() error { return e.Cause }

// Replica is one inference engine in the serving pool. TP-sharded
// engines carry their simulated cluster (Engine.Machine), so PR 3's
// fault injection kills serving replicas exactly the way it kills
// training nodes; single-device replicas die via Kill or a failed
// batch. ScoreCaches may be shared between replicas of the same model
// — the cache is concurrency-safe and the truth tensors are identical.
type Replica struct {
	ID     int
	Engine *infer.Engine
	Scores *infer.ScoreCache

	dead    atomic.Bool
	causeMu sync.Mutex
	cause   error

	// AfterRun, when set, fires between the forward and the post-batch
	// health check. It is a test hook: killing the replica in it makes
	// "killed mid-batch" deterministic for single-device replicas (TP
	// replicas use real cluster fault injection instead), and blocking
	// in it holds a batch on its worker so that later requests queue.
	// Set it before the replica serves.
	AfterRun func()
}

// NewReplica wires a pool replica over an engine and its score cache.
func NewReplica(id int, eng *infer.Engine, sc *infer.ScoreCache) *Replica {
	return &Replica{ID: id, Engine: eng, Scores: sc}
}

// Kill marks the replica dead — the process-local analogue of cluster
// fault injection for replicas without a simulated machine.
func (r *Replica) Kill() {
	r.markDead(nil)
}

func (r *Replica) markDead(cause error) {
	r.causeMu.Lock()
	if r.cause == nil {
		r.cause = cause
	}
	r.causeMu.Unlock()
	r.dead.Store(true)
}

// checkErr returns the replica's health as an error: nil when
// servable, *cluster.DeadDeviceError when its simulated cluster lost a
// device, *DeadReplicaError when latched dead.
func (r *Replica) checkErr() error {
	if err := r.Engine.CheckHealth(); err != nil {
		return err
	}
	if r.dead.Load() {
		r.causeMu.Lock()
		cause := r.cause
		r.causeMu.Unlock()
		return &DeadReplicaError{Replica: r.ID, Cause: cause}
	}
	return nil
}

// Healthy reports whether the scheduler may place batches here. A
// cluster death observed here is latched, so the replica never flaps
// back.
func (r *Replica) Healthy() bool {
	if err := r.checkErr(); err != nil {
		r.markDead(err)
		return false
	}
	return true
}

// run executes one coalesced batch on this replica, filling each
// call's result buffers. Health is checked before and after the
// forward: a replica killed mid-batch returns an error and its
// (complete but untrusted) results are discarded, so the rerun of the
// re-queued calls on a healthy replica regenerates them bit-identically.
func (r *Replica) run(batch []*call) error {
	if err := r.checkErr(); err != nil {
		return err
	}
	n := len(batch)
	ics := make([]*tensor.Tensor, n)
	steps := make([]int, n)
	leads := make([]float64, n)
	lead := r.Scores.LeadHours()
	for i, c := range batch {
		ics[i] = r.Scores.InputAt(c.req.Start)
		steps[i] = c.req.Steps
		leads[i] = lead
		// Fresh result buffers per attempt: a retried batch must not
		// leak a dead replica's partial results.
		if c.degraded {
			c.means = make([][]float64, c.req.Steps)
			c.scores = nil
		} else {
			c.scores = make([]infer.StepScore, c.req.Steps)
			c.means = nil
			r.Scores.Warm(c.req.Start, c.req.Steps)
		}
	}
	mc := r.Engine.Model.Config
	hw := mc.Height * mc.Width
	// Each request rolls for its own horizon and leaves the fused batch
	// after its last step.
	r.Engine.RolloutRagged(ics, steps, leads, func(sample, step int, pred *tensor.Tensor) {
		c := batch[sample]
		if !c.degraded {
			c.scores[step] = r.Scores.Score(c.req.Start, step, pred)
			return
		}
		// Raw-rollout summary: per-channel spatial means, no truth or
		// climatology generation.
		m := make([]float64, mc.OutChannels)
		pd := pred.Data()
		for ch := 0; ch < mc.OutChannels; ch++ {
			var sum float64
			for _, v := range pd[ch*hw : (ch+1)*hw] {
				sum += float64(v)
			}
			m[ch] = sum / float64(hw)
		}
		c.means[step] = m
	})
	if r.AfterRun != nil {
		r.AfterRun()
	}
	return r.checkErr()
}
