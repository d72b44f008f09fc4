package serve

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// counters are the server's internal atomic counters.
type counters struct {
	accepted        atomic.Int64
	completed       atomic.Int64
	failed          atomic.Int64
	shedCapacity    atomic.Int64
	shedPriority    atomic.Int64
	droppedExpired  atomic.Int64
	degraded        atomic.Int64
	batches         atomic.Int64
	retries         atomic.Int64
	replicaFailures atomic.Int64
	latency         histogram
}

// histogram is a lock-free log₂-bucketed latency histogram: bucket i
// counts observations in [2^(i−1), 2^i) microseconds. Quantiles return
// the bucket's upper bound — a conservative (never understated)
// estimate, good to a factor of 2, which is what overload assertions
// and /v1/stats need without per-request allocation.
type histogram struct {
	buckets [40]atomic.Int64
	count   atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us))
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
}

// quantile returns the q-quantile (0 < q ≤ 1) as a duration, 0 when
// empty.
func (h *histogram) quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q*float64(total-1)) + 1
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(uint64(1)<<uint(len(h.buckets))) * time.Microsecond
}

// Stats is a point-in-time snapshot of the serving counters, shaped
// for direct JSON exposure on /v1/stats.
type Stats struct {
	Accepted  int64 `json:"accepted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// ShedCapacity counts requests rejected at the hard queue bound;
	// ShedPriority counts low-priority requests shed at the watermark.
	ShedCapacity int64 `json:"shed_capacity"`
	ShedPriority int64 `json:"shed_priority"`
	// DroppedExpired counts requests whose caller gave up (deadline or
	// cancellation) while they were queued, first or again after a
	// replica failure: dead clients dropped before a replica ran them.
	// They are also counted in Failed.
	DroppedExpired int64 `json:"dropped_expired"`
	// Degraded counts responses served without scoring under overload.
	Degraded int64 `json:"degraded"`
	Batches  int64 `json:"batches"`
	// Retries counts failed batches whose unanswered calls went back to
	// the queue; ReplicaFailures counts batches whose replica was found
	// dead at (or after) them.
	Retries         int64 `json:"retries"`
	ReplicaFailures int64 `json:"replica_failures"`
	QueueDepth      int   `json:"queue_depth"`
	MaxQueueDepth   int   `json:"max_queue_depth"`
	QueueCap        int   `json:"queue_cap"`
	Replicas        int   `json:"replicas"`
	HealthyReplicas int   `json:"healthy_replicas"`
	// Latency quantiles of accepted-and-completed requests,
	// admission-to-response, in milliseconds (log₂-bucketed upper
	// bounds).
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	depth, maxDepth := s.depth, s.maxDepth
	s.mu.Unlock()
	healthy := 0
	for _, r := range s.replicas {
		if r.Healthy() {
			healthy++
		}
	}
	return Stats{
		Accepted:        s.st.accepted.Load(),
		Completed:       s.st.completed.Load(),
		Failed:          s.st.failed.Load(),
		ShedCapacity:    s.st.shedCapacity.Load(),
		ShedPriority:    s.st.shedPriority.Load(),
		DroppedExpired:  s.st.droppedExpired.Load(),
		Degraded:        s.st.degraded.Load(),
		Batches:         s.st.batches.Load(),
		Retries:         s.st.retries.Load(),
		ReplicaFailures: s.st.replicaFailures.Load(),
		QueueDepth:      depth,
		MaxQueueDepth:   maxDepth,
		QueueCap:        s.cfg.QueueCap,
		Replicas:        len(s.replicas),
		HealthyReplicas: healthy,
		LatencyP50Ms:    float64(s.st.latency.quantile(0.50)) / float64(time.Millisecond),
		LatencyP99Ms:    float64(s.st.latency.quantile(0.99)) / float64(time.Millisecond),
	}
}
