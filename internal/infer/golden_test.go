package infer

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"orbit/internal/ckpt"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

// update regenerates testdata/golden/rollout.json from the frozen
// checkpoint beside it: go test ./internal/infer -run TestGoldenRollout
// -update. Do this only when a numerics change is intentional, and say
// so in the PR.
var update = flag.Bool("update", false, "regenerate the golden rollout values from the frozen checkpoint")

// goldenTolerance pins forward-pass numerics: any kernel or refactor
// PR that moves a rollout value by more than this fails loudly instead
// of silently changing model output.
const goldenTolerance = 1e-6

const (
	goldenModelSeed = 20260726
	goldenICSeed    = 777
	goldenSteps     = 3
	goldenLead      = 24.0
)

var goldenResidualChans = []int{1, 3, 4}

type goldenFile struct {
	Description   string      `json:"description"`
	ModelSeed     uint64      `json:"model_seed"`
	ICSeed        uint64      `json:"ic_seed"`
	LeadHours     float64     `json:"lead_hours"`
	ResidualChans []int       `json:"residual_chans"`
	Config        vit.Config  `json:"config"`
	Steps         [][]float32 `json:"steps"` // per rollout step, the flat [OutC, H, W] prediction
}

func goldenConfig() vit.Config {
	cfg := vit.Tiny(6, 8, 16)
	cfg.OutChannels = len(goldenResidualChans)
	return cfg
}

func goldenIC() *tensor.Tensor {
	rng := tensor.NewRNG(goldenICSeed)
	return tensor.Randn(rng, 1, 6, 8, 16)
}

func goldenRollout(t *testing.T, m *vit.Model) [][]float32 {
	t.Helper()
	eng, err := NewEngine(m, Config{ResidualChans: goldenResidualChans})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([][]float32, goldenSteps)
	eng.Rollout(goldenIC(), goldenSteps, goldenLead, func(_, s int, pred *tensor.Tensor) {
		steps[s] = append([]float32(nil), pred.Data()...)
	})
	return steps
}

// TestGoldenRollout loads the frozen checkpoint in testdata/golden and
// pins the batched autoregressive rollout's every output value to the
// checked-in expectations at 1e-6 — the conformance gate between the
// checkpoint format, the model forward, and the rollout wiring.
func TestGoldenRollout(t *testing.T) {
	ckptPath := filepath.Join("testdata", "golden", "tiny.ckpt")
	jsonPath := filepath.Join("testdata", "golden", "rollout.json")

	if *update {
		// The checkpoint is frozen: its bytes pin the reader to these
		// values, so -update never rewrites it. Only a checkout that has
		// none gets one from today's writer.
		if _, err := os.Stat(ckptPath); errors.Is(err, os.ErrNotExist) {
			m, err := vit.New(goldenConfig(), goldenModelSeed)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(ckptPath), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := ckpt.Save(ckptPath, m, false); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", ckptPath)
		} else if err != nil {
			t.Fatal(err)
		}
		m, err := LoadModel(ckptPath)
		if err != nil {
			t.Fatalf("loading frozen checkpoint: %v", err)
		}
		g := goldenFile{
			Description:   "frozen tiny-model rollout: residual-channel autoregressive predictions, 1e-6 conformance",
			ModelSeed:     goldenModelSeed,
			ICSeed:        goldenICSeed,
			LeadHours:     goldenLead,
			ResidualChans: goldenResidualChans,
			Config:        goldenConfig(),
			Steps:         goldenRollout(t, m),
		}
		b, err := json.MarshalIndent(&g, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s from %s", jsonPath, ckptPath)
	}

	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("missing golden values (run with -update to generate): %v", err)
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	if g.Config != goldenConfig() || g.ModelSeed != goldenModelSeed {
		t.Fatalf("golden metadata drifted from the test constants: %+v", g)
	}

	raw, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != ckpt.Version {
		t.Fatalf("%s stores format version %d, want ckpt.Version %d", ckptPath, v, ckpt.Version)
	}
	m, err := LoadModel(ckptPath)
	if err != nil {
		t.Fatalf("loading frozen checkpoint: %v", err)
	}
	got := goldenRollout(t, m)
	if len(got) != len(g.Steps) {
		t.Fatalf("rollout produced %d steps, golden has %d", len(got), len(g.Steps))
	}
	for s := range got {
		if len(got[s]) != len(g.Steps[s]) {
			t.Fatalf("step %d: %d values, golden has %d", s, len(got[s]), len(g.Steps[s]))
		}
		worst, worstIdx := 0.0, -1
		for i := range got[s] {
			d := math.Abs(float64(got[s][i]) - float64(g.Steps[s][i]))
			if d > worst {
				worst, worstIdx = d, i
			}
		}
		if worst > goldenTolerance {
			t.Errorf("step %d: value %d drifted by %g (> %g): got %v, golden %v — model numerics changed; if intentional, regenerate with -update and call it out in the PR",
				s, worstIdx, worst, goldenTolerance, got[s][worstIdx], g.Steps[s][worstIdx])
		}
	}
}

// TestGoldenCheckpointStable additionally pins the frozen checkpoint
// bytes themselves: loading them must reproduce the same weights the
// generator seed produces, so a ckpt-format change cannot silently
// reinterpret old files.
func TestGoldenCheckpointStable(t *testing.T) {
	ckptPath := filepath.Join("testdata", "golden", "tiny.ckpt")
	m, err := LoadModel(ckptPath)
	if err != nil {
		t.Fatalf("loading frozen checkpoint (run TestGoldenRollout -update first): %v", err)
	}
	ref, err := vit.New(goldenConfig(), goldenModelSeed)
	if err != nil {
		t.Fatal(err)
	}
	mp, rp := m.Params(), ref.Params()
	if len(mp) != len(rp) {
		t.Fatalf("%d params loaded, %d expected", len(mp), len(rp))
	}
	for i := range mp {
		if d := tensor.MaxDiff(mp[i].W, rp[i].W); d != 0 {
			t.Fatalf("param %s differs from its seed by %g — the frozen file no longer decodes bit-exactly", mp[i].Name, d)
		}
	}
}
