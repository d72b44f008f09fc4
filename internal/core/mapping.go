// Package core implements Hybrid Sharded Tensor-Data Orthogonal
// Parallelism (Hybrid-STOP), the primary contribution of the ORBIT
// paper (Sec. III). Hybrid-STOP distributes the two-matmul chains of
// the transformer (self-attention and feed-forward, both of the form
// y = xAB) in alternating column shards of A and row shards of B
// across a tensor-parallel group — exploiting the identity
// xAB = Σ_k x·A_{*,k}·B_{k,*} (Eqn. 2) — while every shard is
// additionally flat-sharded across an FSDP group and gathered
// per-layer on demand, so no rank ever materializes the full model
// (unlike vanilla FSDP, Fig. 2). An outer DDP level provides the
// remaining scale-out. The three groups are orthogonal axes of a rank
// grid mapped onto the machine hierarchy (Fig. 4): TP inside a node's
// fast Infinity Fabric, FSDP across nodes, DDP across sub-clusters.
package core

import (
	"fmt"

	"orbit/internal/cluster"
	"orbit/internal/comm"
)

// Layout describes the three orthogonal parallelism group sizes.
type Layout struct {
	TP, FSDP, DDP int
}

// Ranks returns the total rank count TP×FSDP×DDP.
func (l Layout) Ranks() int { return l.TP * l.FSDP * l.DDP }

// Validate reports impossible layouts.
func (l Layout) Validate() error {
	if l.TP < 1 || l.FSDP < 1 || l.DDP < 1 {
		return fmt.Errorf("core: group sizes must be positive, got %+v", l)
	}
	return nil
}

// Coord locates a rank on the 3-D grid.
type Coord struct {
	T, F, D int
}

// RankOf converts grid coordinates to a global rank. The TP index is
// fastest-varying so a TP group occupies consecutive devices (and
// therefore a single node when TP ≤ GPUs/node) — the paper's
// hierarchical mapping.
func (l Layout) RankOf(c Coord) int {
	return (c.D*l.FSDP+c.F)*l.TP + c.T
}

// CoordOf inverts RankOf.
func (l Layout) CoordOf(rank int) Coord {
	return Coord{
		T: rank % l.TP,
		F: (rank / l.TP) % l.FSDP,
		D: rank / (l.TP * l.FSDP),
	}
}

// Axis names one of the grid's three orthogonal group axes.
type Axis int

const (
	AxisTP Axis = iota
	AxisFSDP
	AxisDDP
)

// Line returns the grid line through c along axis — the ranks of the
// communicator c's rank joins for that axis — as the ranks
// first + i·stride for i < size, in the order of the varying index.
func (l Layout) Line(axis Axis, c Coord) (first, stride, size int) {
	switch axis {
	case AxisTP:
		c.T = 0
		return l.RankOf(c), 1, l.TP
	case AxisFSDP:
		c.F = 0
		return l.RankOf(c), l.TP, l.FSDP
	}
	c.D = 0
	return l.RankOf(c), l.TP * l.FSDP, l.DDP
}

// Groups holds one rank's three communicators.
type Groups struct {
	TP   *comm.Group // same (D,F), varying T: activation reductions
	FSDP *comm.Group // same (D,T), varying F: parameter gather/scatter
	DDP  *comm.Group // same (F,T), varying D: gradient all-reduce
	// All spans every rank (loss averaging / diagnostics).
	All *comm.Group
}

// BuildGroups constructs the communicator grid over the machine's
// first Ranks() devices. Groups are shared objects: BuildGroups
// returns a per-rank view backed by common communicators, exactly one
// per grid line.
func BuildGroups(l Layout, m *cluster.Machine) ([]*Groups, error) {
	return BuildGroupsOver(l, m.Devices)
}

// BuildGroupsOver is BuildGroups over an explicit device window: the
// grid occupies window[0:Ranks()] in rank order. Pipeline layouts use
// it to stand up one inner TP×FSDP×DDP grid per stage, each over its
// stage's contiguous slice of the machine.
func BuildGroupsOver(l Layout, window []*cluster.Device) ([]*Groups, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	n := l.Ranks()
	if len(window) < n {
		return nil, fmt.Errorf("core: layout needs %d devices, window has %d", n, len(window))
	}
	devs := window[:n]
	views := make([]*Groups, n)
	all := comm.NewGroup(devs)
	for r := range views {
		views[r] = &Groups{All: all}
	}
	for axis := AxisTP; axis <= AxisDDP; axis++ {
		for r := range views {
			first, stride, size := l.Line(axis, l.CoordOf(r))
			if first != r {
				continue // joined when the line's first rank opened it
			}
			ds := make([]*cluster.Device, size)
			for i := range ds {
				ds[i] = devs[first+i*stride]
			}
			g := comm.NewGroup(ds)
			for i := range ds {
				m := views[first+i*stride]
				fields := [...]**comm.Group{&m.TP, &m.FSDP, &m.DDP}
				*fields[axis] = g
			}
		}
	}
	return views, nil
}
