// Package pp adds pipeline parallelism as a first-class fourth axis
// over the Hybrid-STOP engine: the transformer stack is cut into
// contiguous stages of near-equal block counts (UniformPartition), each
// rank holds one core.Engine running its stage's inner TP×FSDP×DDP
// grid, and micro-batches stream through the stages under the 1F1B
// schedule. Cross-stage activation and gradient transfers ride
// internal/comm's point-to-point send/recv handles — one dedicated
// two-rank group per (link, direction), posted asynchronously so stage
// compute overlaps the transfer — which keeps the whole 4D composition
// on the same SPMD rendezvous discipline (and the same poison/unwind
// fault machinery) as the 3D engine.
//
// Pipeline schedules are the most ordering-sensitive parallelism
// form: a 1F1B bug corrupts gradients silently instead of crashing.
// The package is therefore gated by a schedule-conformance layer
// (conformance_test.go): the schedule must produce losses and
// per-parameter gradients bit-identical to the single-stage
// reference, and PP=1 layouts must be bit-identical to the 3D engine.
package pp

import (
	"fmt"
	"strconv"
	"strings"

	"orbit/internal/core"
)

// Layout describes the four orthogonal parallelism group sizes. The
// inner three axes mean exactly what they mean in core.Layout; PP is
// the number of pipeline stages the block stack is cut into.
type Layout struct {
	TP, PP, FSDP, DDP int
}

// Inner is the per-stage 3D grid: every pipeline stage runs one.
func (l Layout) Inner() core.Layout {
	return core.Layout{TP: l.TP, FSDP: l.FSDP, DDP: l.DDP}
}

// Ranks returns the total rank count TP×PP×FSDP×DDP.
func (l Layout) Ranks() int { return l.TP * l.PP * l.FSDP * l.DDP }

// Validate reports impossible layouts.
func (l Layout) Validate() error {
	if l.TP < 1 || l.PP < 1 || l.FSDP < 1 || l.DDP < 1 {
		return fmt.Errorf("pp: group sizes must be positive, got %+v", l)
	}
	return nil
}

// Coord locates a rank on the 4D grid.
type Coord struct {
	T, P, F, D int
}

// RankOf converts grid coordinates to a global rank. The stage index
// is slowest-varying, so each stage occupies a contiguous window of
// devices whose interior ordering is exactly core.Layout's — a PP=1
// layout therefore maps ranks to devices identically to the 3D
// engine, and pipeline neighbours sit in adjacent windows (cross-node
// for multi-node stages, matching how real pipelines span nodes).
func (l Layout) RankOf(c Coord) int {
	return ((c.P*l.DDP+c.D)*l.FSDP+c.F)*l.TP + c.T
}

// CoordOf inverts RankOf.
func (l Layout) CoordOf(rank int) Coord {
	inner := l.TP * l.FSDP * l.DDP
	c3 := l.Inner().CoordOf(rank % inner)
	return Coord{T: c3.T, P: rank / inner, F: c3.F, D: c3.D}
}

// ParseLayout parses a -layout flag value: either the 3-field
// TPxFSDPxDDP form (PP=1, today's layouts unchanged) or the 4-field
// TPxPPxFSDPxDDP form.
func ParseLayout(spec string) (Layout, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(spec)), "x")
	vals := make([]int, 0, len(parts))
	for _, p := range parts {
		// Unsigned and whole-field: a sign, a space or any trailing
		// byte is an error, never a silently truncated extent.
		v, err := strconv.ParseUint(p, 10, 31)
		if err != nil {
			return Layout{}, fmt.Errorf("pp: bad layout %q (want TPxFSDPxDDP or TPxPPxFSDPxDDP)", spec)
		}
		vals = append(vals, int(v))
	}
	var l Layout
	switch len(vals) {
	case 3:
		l = Layout{TP: vals[0], PP: 1, FSDP: vals[1], DDP: vals[2]}
	case 4:
		l = Layout{TP: vals[0], PP: vals[1], FSDP: vals[2], DDP: vals[3]}
	default:
		return Layout{}, fmt.Errorf("pp: bad layout %q (want TPxFSDPxDDP or TPxPPxFSDPxDDP)", spec)
	}
	if err := l.Validate(); err != nil {
		return Layout{}, err
	}
	return l, nil
}

// String renders the 4-field flag form.
func (l Layout) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", l.TP, l.PP, l.FSDP, l.DDP)
}
