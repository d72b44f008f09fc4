package plan

import (
	"encoding/json"
	"strings"
	"testing"

	"orbit/internal/comm"
	"orbit/internal/core"
	"orbit/internal/nn"
	"orbit/internal/parallel"
	"orbit/internal/pp"
	"orbit/internal/tensor"
)

func testWorkload() Workload {
	return Workload{
		Dim: 32, Heads: 4, Layers: 3, Tokens: 16, QKNorm: true,
		GlobalBatch: 64,
		Opts:        core.DefaultOptions(),
	}
}

// TestShardNumel pins the analytic shard geometry against the real
// construction: the planner's parameter counts must equal what
// parallel.NewTPBlock + FlattenParams actually produce, for every TP
// rank and a spread of FSDP paddings.
func TestShardNumel(t *testing.T) {
	for _, cfg := range []struct{ dim, heads int }{{8, 2}, {32, 4}, {64, 8}} {
		for _, qk := range []bool{true, false} {
			ref := nn.NewTransformerBlock("ref", cfg.dim, cfg.heads, qk, tensor.NewRNG(3))
			for tp := 1; tp <= cfg.heads; tp *= 2 {
				for rank := 0; rank < tp; rank++ {
					blk := parallel.NewTPBlock(rank, newTestGroup(tp), ref)
					got := 0
					for _, p := range blk.Params() {
						got += p.W.Len()
					}
					want := blockShardNumel(cfg.dim, cfg.heads, tp, rank, qk)
					if got != want {
						t.Errorf("dim=%d heads=%d tp=%d rank=%d qk=%v: analytic numel %d, real %d",
							cfg.dim, cfg.heads, tp, rank, qk, want, got)
					}
					for _, fsdp := range []int{1, 2, 3, 4, 7} {
						flat := parallel.FlattenParams(blk.Params(), fsdp)
						if len(flat) != parallel.Padded(want, fsdp) {
							t.Errorf("dim=%d tp=%d rank=%d fsdp=%d: analytic flat len %d, real %d",
								cfg.dim, tp, rank, fsdp, parallel.Padded(want, fsdp), len(flat))
						}
					}
				}
			}
		}
	}
}

// newTestGroup builds a TP communicator over one node for shard
// construction (costs irrelevant here).
func newTestGroup(size int) *comm.Group {
	m := Shape(1).Machine()
	return comm.NewGroup(m.Devices[:size])
}

// TestEnumerateConstraints checks the structural rules of the search
// space.
func TestEnumerateConstraints(t *testing.T) {
	w := testWorkload()
	c := Shape(2) // 16 devices
	cands, err := Enumerate4(w, c, Constraints{FixPP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("empty enumeration")
	}
	for _, cand := range cands {
		l := cand.Layout
		if l.PP != 1 {
			t.Errorf("FixPP=1 enumeration produced PP=%d", l.PP)
		}
		if w.Heads%l.TP != 0 {
			t.Errorf("TP=%d does not divide %d heads", l.TP, w.Heads)
		}
		if l.Ranks() > c.Devices() {
			t.Errorf("layout %+v exceeds %d devices", l, c.Devices())
		}
		if w.GlobalBatch%(l.FSDP*l.DDP) != 0 {
			t.Errorf("layout %+v: data ranks do not divide global batch", l)
		}
		if cand.Knobs.MicroBatches != w.GlobalBatch/(l.FSDP*l.DDP) {
			t.Errorf("layout %+v: micro batches %d inconsistent", l, cand.Knobs.MicroBatches)
		}
		if cand.Knobs.DDPBucketBytes != 0 && l.DDP == 1 {
			t.Errorf("layout %+v: bucketing enumerated without a DDP level", l)
		}
	}
	// FixTP restricts to a single tensor extent.
	fixed, err := Enumerate4(w, c, Constraints{FixTP: 2, FixPP: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range fixed {
		if cand.Layout.TP != 2 {
			t.Errorf("FixTP=2 enumeration produced TP=%d", cand.Layout.TP)
		}
	}
	// MaxRanks caps the occupied devices (elastic shrink).
	capped, err := Enumerate4(w, c, Constraints{MaxRanks: 8, FixPP: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range capped {
		if cand.Layout.Ranks() > 8 {
			t.Errorf("MaxRanks=8 enumeration produced %d ranks", cand.Layout.Ranks())
		}
	}
}

// TestExplainIsMachineReadable: every ranked plan carries a JSON
// explanation that round-trips and exposes the prediction fields.
func TestExplainIsMachineReadable(t *testing.T) {
	w := testWorkload()
	plans, err := Rank4(w, Shape(1), Constraints{FixPP: 1})
	if err != nil {
		t.Fatal(err)
	}
	top := plans[0]
	var decoded struct {
		Layout     pp.Layout  `json:"layout"`
		Knobs      Knobs      `json:"knobs"`
		Prediction Prediction `json:"prediction"`
	}
	if err := json.Unmarshal([]byte(top.Explain()), &decoded); err != nil {
		t.Fatalf("Explain is not valid JSON: %v", err)
	}
	if decoded.Layout != top.Layout || decoded.Knobs != top.Knobs {
		t.Errorf("explanation layout/knobs do not round-trip: %+v", decoded)
	}
	if decoded.Prediction.StepTime <= 0 {
		t.Errorf("explanation lacks a positive step-time prediction")
	}
	if decoded.Prediction.Memory.TotalBytes <= 0 {
		t.Errorf("explanation lacks the analytic memory breakdown")
	}
	if !strings.Contains(top.Explain(), "step_time_s") {
		t.Errorf("explanation missing step_time_s field")
	}
}

// TestBestIsFeasible: the winner fits in device memory and its ranks
// fit the machine.
func TestBestIsFeasible(t *testing.T) {
	w := testWorkload()
	c := Shape(2)
	best, err := Best4(w, c, Constraints{FixPP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if best.Pred.OOM {
		t.Fatalf("best plan predicted OOM: %s", best.Explain())
	}
	if best.Layout.Ranks() > c.Devices() {
		t.Fatalf("best plan %+v does not fit %d devices", best.Layout, c.Devices())
	}
	if best.Pred.DeviceBytes > c.Spec.MemPerGPU {
		t.Fatalf("best plan predicts %d bytes on a %d-byte device", best.Pred.DeviceBytes, c.Spec.MemPerGPU)
	}
}
