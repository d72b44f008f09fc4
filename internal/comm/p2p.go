package comm

// Point-to-point send/recv: the transport pipeline parallelism rides
// on. A send is a rendezvous on the group exactly like a collective —
// every rank posts at the same sequence position, one of them (the
// sender) with a source buffer via ISend, the others with destination
// buffers via IRecv — so the SPMD ordering discipline, the async
// handle protocol, and the poison/unwind machinery all apply
// unchanged. The canonical use is a dedicated two-rank group per
// (adjacent-stage pair, direction) link: with one group per direction,
// both endpoints post transfers in plain micro-batch order and the
// per-rank sequence numbers can never disagree, which is what makes
// 1F1B deadlock-free under the rendezvous model.
//
// Unlike the ring collectives, a point-to-point message pays the plain
// store-and-forward cost latency + bytes/bandwidth on the link class
// the group spans.

// ISend posts a point-to-point send of buf to the group's receivers
// (the ranks posting IRecv at the same sequence position). Ownership
// of buf transfers to the communicator until Wait returns; the data is
// copied out at rendezvous time, not at post time, so the sender must
// not reuse buf before waiting.
func (g *Group) ISend(rank int, buf []float32) Handle {
	if buf == nil {
		panic("comm: ISend requires a non-nil buffer")
	}
	return g.post(P2P, rank, buf, nil, 1, false, g.cost(P2P, len(buf)))
}

// IRecv posts the receiving side of a point-to-point send: dst is
// filled with the sender's buffer at rendezvous. dst must have the
// sender's length (a mismatch surfaces as a modeled-cost divergence —
// an SPMD ordering violation — or a copy-length panic at completion).
func (g *Group) IRecv(rank int, dst []float32) Handle {
	if dst == nil {
		panic("comm: IRecv requires a non-nil destination")
	}
	return g.post(P2P, rank, nil, dst, 1, false, g.cost(P2P, len(dst)))
}

// SendTo is the synchronous form of ISend.
func (g *Group) SendTo(rank int, buf []float32) {
	g.ISend(rank, buf).Wait()
}

// RecvFrom is the synchronous form of IRecv.
func (g *Group) RecvFrom(rank int, dst []float32) {
	g.IRecv(rank, dst).Wait()
}
