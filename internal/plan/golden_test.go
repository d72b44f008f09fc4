package plan

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"orbit/internal/pp"
)

// update regenerates testdata/predict_golden.txt: go test
// ./internal/plan -run TestPredictGolden -update. Do this only when a
// prediction is meant to change, and call it out in the PR.
var update = flag.Bool("update", false, "regenerate the predictor golden table")

const goldenPath = "testdata/predict_golden.txt"

// goldenRows is the pinned candidate set on ScaledShape(2, 1e-3): the
// 16-device (TP, FSDP, DDP) factor grid as PP=1 rows, the option and
// knob variants the replay branches on (layer wrapping, activation
// checkpointing, gather precision, prefetch depth, DDP bucketing,
// QK-norm, a padded non-power-of-two FSDP extent), and the PP ∈ {2, 3}
// rows of TestPlanner4DCalibration16.
func goldenRows() (names []string, ws []Workload, cands []Candidate4) {
	base := testWorkload()
	add := func(name string, w Workload, l pp.Layout, depth, bucket int) {
		names = append(names, fmt.Sprintf("%s %s d%d b%d", name, l, depth, bucket))
		ws = append(ws, w)
		cands = append(cands, Candidate4{
			Layout: l,
			Knobs:  Knobs{PrefetchDepth: depth, DDPBucketBytes: bucket, MicroBatches: w.GlobalBatch / (l.FSDP * l.DDP)},
		})
	}
	for _, l := range []pp.Layout{
		{TP: 1, PP: 1, FSDP: 1, DDP: 16}, {TP: 1, PP: 1, FSDP: 2, DDP: 8}, {TP: 1, PP: 1, FSDP: 4, DDP: 4},
		{TP: 1, PP: 1, FSDP: 8, DDP: 2}, {TP: 1, PP: 1, FSDP: 16, DDP: 1},
		{TP: 2, PP: 1, FSDP: 1, DDP: 8}, {TP: 2, PP: 1, FSDP: 2, DDP: 4}, {TP: 2, PP: 1, FSDP: 4, DDP: 2},
		{TP: 2, PP: 1, FSDP: 8, DDP: 1},
		{TP: 4, PP: 1, FSDP: 1, DDP: 4}, {TP: 4, PP: 1, FSDP: 2, DDP: 2}, {TP: 4, PP: 1, FSDP: 4, DDP: 1},
	} {
		add("default", base, l, 1, 0)
	}
	knobLayout := pp.Layout{TP: 2, PP: 1, FSDP: 2, DDP: 4}
	add("default", base, knobLayout, 0, 0)
	add("default", base, knobLayout, 2, 0)
	add("default", base, knobLayout, 1, 1<<10)
	add("default", base, knobLayout, 1, 1<<30)

	noWrap := base
	noWrap.Opts.LayerWrapping = false
	add("nowrap", noWrap, pp.Layout{TP: 2, PP: 1, FSDP: 4, DDP: 2}, 0, 0)
	noCkpt := base
	noCkpt.Opts.ActivationCheckpoint = false
	add("nockpt", noCkpt, pp.Layout{TP: 2, PP: 1, FSDP: 2, DDP: 1}, 1, 0)
	bare := noWrap
	bare.Opts.ActivationCheckpoint = false
	add("nowrap-nockpt", bare, pp.Layout{TP: 2, PP: 1, FSDP: 4, DDP: 1}, 0, 0)
	fp32 := base // the default options gather in bf16
	fp32.Opts.MixedPrecision = false
	add("fp32", fp32, pp.Layout{TP: 2, PP: 1, FSDP: 4, DDP: 2}, 1, 0)
	add("fp32", fp32, pp.Layout{TP: 1, PP: 2, FSDP: 4, DDP: 2}, 1, 0)
	noQK := base
	noQK.QKNorm = false
	add("noqk", noQK, pp.Layout{TP: 4, PP: 1, FSDP: 2, DDP: 2}, 1, 0)
	padded := base
	padded.GlobalBatch = 48
	add("gb48", padded, pp.Layout{TP: 2, PP: 1, FSDP: 3, DDP: 2}, 1, 0)

	for _, l := range []pp.Layout{
		{TP: 1, PP: 2, FSDP: 1, DDP: 8}, {TP: 1, PP: 2, FSDP: 2, DDP: 2},
		{TP: 1, PP: 2, FSDP: 4, DDP: 2}, {TP: 1, PP: 2, FSDP: 8, DDP: 1},
		{TP: 2, PP: 2, FSDP: 2, DDP: 2}, {TP: 2, PP: 2, FSDP: 4, DDP: 1},
		{TP: 4, PP: 2, FSDP: 2, DDP: 1},
		{TP: 1, PP: 3, FSDP: 2, DDP: 2}, {TP: 1, PP: 3, FSDP: 4, DDP: 1},
		{TP: 2, PP: 3, FSDP: 2, DDP: 1},
	} {
		add("default", base, l, 1, 0)
	}
	add("default", base, pp.Layout{TP: 2, PP: 2, FSDP: 2, DDP: 2}, 2, 1<<10)
	return names, ws, cands
}

// goldenLine renders every Prediction field bit-exactly: floats as
// their IEEE-754 bit patterns, integers in decimal.
func goldenLine(name string, p Prediction) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s |", name)
	for _, f := range []float64{p.StepTime, p.ComputeTime, p.GatherWait, p.TPWait, p.RSWait, p.DDPWait, p.PPWait} {
		fmt.Fprintf(&b, " %016x", math.Float64bits(f))
	}
	fmt.Fprintf(&b, " | %d %t %q", p.DeviceBytes, p.OOM, p.Note)
	return b.String()
}

// TestPredictGolden pins every field of Predict4's output, bit for
// bit, on a fixed candidate set. The table was recorded when PP=1
// candidates were still priced by a separate 3D predictor; it is what
// shows that pricing them through the one 4D replay moved no number.
func TestPredictGolden(t *testing.T) {
	c := ScaledShape(2, 1e-3)
	names, ws, cands := goldenRows()
	if len(cands) < 24 {
		t.Fatalf("golden set has %d rows, want >= 24", len(cands))
	}
	got := make([]string, len(cands))
	for i := range cands {
		got[i] = goldenLine(names[i], Predict4(ws[i], c, cands[i]))
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden table (run with -update to generate): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden table has %d rows, candidate set has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d drifted:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
