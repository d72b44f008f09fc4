package comm

import "orbit/internal/cluster"

// The price and clock rules of a collective. Group charges the
// simulated devices with them, and the planner's replay
// (internal/plan) calls the same code, so the two cannot drift.

// Kind names a collective operation.
type Kind uint8

const (
	AllGather     Kind = iota
	AllReduce          // the scale distinguishes sum from mean
	ReduceScatter      // the scale distinguishes sum from mean
	P2P                // point-to-point send/recv rendezvous (p2p.go)
)

func (k Kind) String() string {
	switch k {
	case AllGather:
		return "all-gather"
	case AllReduce:
		return "all-reduce"
	case ReduceScatter:
		return "reduce-scatter"
	case P2P:
		return "send"
	}
	return "none"
}

// Link is the α–β price of one link class: per-message latency α in
// seconds and bandwidth β in bytes/s.
type Link struct {
	Latency, Bandwidth float64
}

// LinkFor picks the link class a group spans: Infinity Fabric when all
// its members sit on one node, Slingshot otherwise.
func LinkFor(spec cluster.Spec, oneNode bool) Link {
	if oneNode {
		return Link{spec.IntraNodeLatency, spec.IntraNodeBandwidth}
	}
	return Link{spec.InterNodeLatency, spec.InterNodeBandwidth}
}

// Cost prices one collective over ranks members, n float32 elements
// per rank: the shard an all-gather contributes, the buffer an
// all-reduce or reduce-scatter reduces, the message a send carries.
// The ring collectives are bandwidth-optimal rings moving (p−1)/p of
// their bytes per rank in p−1 latency-bound steps (an all-reduce is a
// reduce-scatter then an all-gather); a send pays store-and-forward
// latency + bytes/bandwidth.
func (l Link) Cost(kind Kind, ranks, n int) float64 {
	bytes := 4 * n
	switch {
	case kind == P2P:
		return l.Latency + float64(bytes)/l.Bandwidth
	case ranks == 1:
		return 0
	case kind == AllGather:
		bytes *= ranks
	}
	p := float64(ranks)
	ring := (p - 1) * (l.Latency + float64(bytes)/p/l.Bandwidth)
	if kind == AllReduce {
		return 2 * ring
	}
	return ring
}

// Rendezvous is the clock side of one collective: it starts once every
// rank has posted it and its group's one communication stream is free
// (collectives on one group serialize, as on one RCCL stream), and
// completes Cost later.
type Rendezvous struct {
	Cost       float64
	Latest     float64 // latest poster's clock
	Posted     int
	Completion float64 // fixed by the last post
}

// Post records count ranks posting at clock. When the size-th rank
// posts it fixes Completion at max(Latest, *stream) + Cost, moves the
// stream to it and reports true.
func (r *Rendezvous) Post(clock float64, count, size int, stream *float64) bool {
	if clock > r.Latest {
		r.Latest = clock
	}
	r.Posted += count
	if r.Posted != size {
		return false
	}
	start := r.Latest
	if *stream > start {
		start = *stream
	}
	r.Completion = start + r.Cost
	*stream = r.Completion
	return true
}
