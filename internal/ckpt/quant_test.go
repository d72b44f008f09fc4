package ckpt

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orbit/internal/nn"
	"orbit/internal/quant"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

// TestQuantizedRoundTrip: save→load of both quantized formats
// reconstructs a model whose forward stays within the format's
// tolerance of the original, and the returned containers cover exactly
// the quantizable weights.
func TestQuantizedRoundTrip(t *testing.T) {
	m, err := vit.New(vit.Tiny(3, 8, 16), 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	x := tensor.Randn(rng, 1, 3, 8, 16)
	ref := m.Forward(x, 24)
	for _, tc := range []struct {
		kind quant.Kind
		tol  float64
	}{{quant.Int8, 0.05}, {quant.Q4_0, 1.0}} {
		path := filepath.Join(t.TempDir(), "quant.orbt")
		if err := SaveQuantized(path, m, tc.kind); err != nil {
			t.Fatal(err)
		}
		back, qs, err := LoadQuantized(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.Config != m.Config {
			t.Fatalf("%s: config mismatch", tc.kind)
		}
		if len(qs) == 0 {
			t.Fatalf("%s: no quantized containers returned", tc.kind)
		}
		for name, q := range qs {
			if q.Kind() != tc.kind {
				t.Errorf("%s: container %s has kind %s", tc.kind, name, q.Kind())
			}
		}
		want := map[string]bool{}
		for _, p := range m.Params() {
			if quantizable(p) {
				want[p.Name] = true
			}
		}
		if len(want) != len(qs) {
			t.Errorf("%s: %d containers, %d quantizable params", tc.kind, len(qs), len(want))
		}
		for name := range want {
			if qs[name] == nil {
				t.Errorf("%s: missing container for %s", tc.kind, name)
			}
		}
		// Coarse sanity bound on an untrained net (whose norms amplify
		// weight noise); the tight wRMSE quality gates live in
		// internal/infer's golden-rollout tests.
		if !tensor.AllClose(back.Forward(x, 24), ref, 0, tc.tol) {
			t.Errorf("%s: forward drifted past tolerance %g", tc.kind, tc.tol)
		}
	}
}

// TestQuantizedGenericLoad: the plain Load path reads a quantized
// checkpoint transparently (dequantizing), so every existing consumer
// of weights-only checkpoints keeps working.
func TestQuantizedGenericLoad(t *testing.T) {
	m, _ := vit.New(vit.Tiny(2, 8, 8), 1)
	path := filepath.Join(t.TempDir(), "quant.orbt")
	if err := SaveQuantized(path, m, quant.Int8); err != nil {
		t.Fatal(err)
	}
	viaLoad, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	viaQuant, _, err := LoadQuantized(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range viaLoad.Params() {
		qd := viaQuant.Params()[i].W.Data()
		for j, v := range p.W.Data() {
			if v != qd[j] {
				t.Fatalf("Load and LoadQuantized disagree at %s[%d]", p.Name, j)
			}
		}
	}
}

// TestQuantizedCheckpointSize pins the headline compression: Q4_0
// files must be at least 3.5x smaller than f32, int8 at least 3x.
func TestQuantizedCheckpointSize(t *testing.T) {
	m, _ := vit.New(vit.Tiny(3, 8, 16), 3)
	dir := t.TempDir()
	size := func(name string, save func(string) error) int64 {
		p := filepath.Join(dir, name)
		if err := save(p); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	f32 := size("f32.orbt", func(p string) error { return Save(p, m, false) })
	i8 := size("i8.orbt", func(p string) error { return SaveQuantized(p, m, quant.Int8) })
	q4 := size("q4.orbt", func(p string) error { return SaveQuantized(p, m, quant.Q4_0) })
	if ratio := float64(f32) / float64(q4); ratio < 3.5 {
		t.Errorf("q4_0 checkpoint only %.2fx smaller than f32 (%d vs %d bytes), want >= 3.5x", ratio, f32, q4)
	}
	// The f32 residue (norms, biases, the sub-block patch weights) is a
	// larger share at Tiny scale, so int8's bound sits below its 3.56x
	// asymptote.
	if ratio := float64(f32) / float64(i8); ratio < 2.5 {
		t.Errorf("int8 checkpoint only %.2fx smaller than f32 (%d vs %d bytes), want >= 2.5x", ratio, f32, i8)
	}
}

// TestCheckLoadableKindAware is the regression test for the
// bytes-per-param floor bug: a legitimate Q4_0 checkpoint sits near
// 0.6 bytes/param, which the old fixed `budget/2` guard rejected as
// corrupt, while a 1 KB file claiming a multi-GB model must still
// fail for every kind.
func TestCheckLoadableKindAware(t *testing.T) {
	m, _ := vit.New(vit.Tiny(3, 8, 16), 3)
	path := filepath.Join(t.TempDir(), "q4.orbt")
	if err := SaveQuantized(path, m, quant.Q4_0); err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)

	// The real quantized file loads under its own size as the budget...
	if err := checkLoadable(m.Config, st.Size(), kindQuantWeights); err != nil {
		t.Errorf("legit Q4_0 file rejected by plausibility floor: %v", err)
	}
	// ...and the old fixed 2-byte floor would indeed have rejected it —
	// the quantized file is genuinely below 2 bytes/param once the
	// config slack is taken out of play.
	if float64(st.Size()) >= 2*float64(m.NumParams()) {
		t.Fatalf("test premise broken: %d bytes for %d params is not sub-bf16", st.Size(), m.NumParams())
	}
	if _, _, err := LoadQuantized(path); err != nil {
		t.Errorf("end-to-end quantized load failed: %v", err)
	}

	// Adversarial header: a tiny budget cannot back a huge config, at
	// any kind.
	huge := m.Config
	huge.EmbedDim = 4096
	huge.Layers = 64
	huge.Heads = 64
	for _, kind := range []uint8{kindWeights, kindTrain, kindQuantWeights} {
		if err := checkLoadable(huge, 1024, kind); err == nil {
			t.Errorf("kind %d: GB-scale config accepted against a 1 KB budget", kind)
		}
	}
}

// TestLoadQuantizedWrongKind: structurally valid non-quantized
// checkpoints come back as ErrNotQuantized (a usage error, not
// corruption) so callers can fall back to Load.
func TestLoadQuantizedWrongKind(t *testing.T) {
	m, _ := vit.New(vit.Tiny(2, 8, 8), 1)
	path := filepath.Join(t.TempDir(), "f32.orbt")
	if err := Save(path, m, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadQuantized(path); !errors.Is(err, ErrNotQuantized) {
		t.Errorf("LoadQuantized on f32 checkpoint: %v, want ErrNotQuantized", err)
	}
	var ce *CorruptError
	if _, _, err := LoadQuantized(path); errors.As(err, &ce) {
		t.Error("wrong-kind error should not be a *CorruptError")
	}
}

// TestSaveQuantizedInvalidKind rejects unknown formats up front.
func TestSaveQuantizedInvalidKind(t *testing.T) {
	m, _ := vit.New(vit.Tiny(2, 8, 8), 1)
	if err := SaveQuantized(filepath.Join(t.TempDir(), "x.orbt"), m, quant.Kind(9)); err == nil {
		t.Error("invalid kind accepted")
	}
}

// TestQuantizeRejectsNonFiniteWeights: a NaN or an Inf in the last
// weight to quantize fails QuantizeModel and SaveQuantized with that
// parameter's name; QuantizeModel changes no weight, not even the ones
// before it, and SaveQuantized leaves no file. Quantized as it stands, a
// NaN would come back as a finite weight and an Inf would write a file
// LoadQuantized refuses.
func TestQuantizeRejectsNonFiniteWeights(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for _, kind := range []quant.Kind{quant.Int8, quant.Q4_0} {
			m, err := vit.New(vit.Tiny(2, 8, 8), 3)
			if err != nil {
				t.Fatal(err)
			}
			var target *nn.Param
			for _, p := range m.Params() {
				if quantizable(p) {
					target = p
				}
			}
			target.W.Data()[5] = bad
			before := map[string][]float32{}
			for _, p := range m.Params() {
				before[p.Name] = append([]float32(nil), p.W.Data()...)
			}
			path := filepath.Join(t.TempDir(), "bad.orbt")
			err = SaveQuantized(path, m, kind)
			if err == nil || !strings.Contains(err.Error(), target.Name) {
				t.Errorf("%s with %v: SaveQuantized error %v, want one naming %s", kind, bad, err, target.Name)
			}
			if _, statErr := os.Stat(path); !errors.Is(statErr, os.ErrNotExist) {
				t.Errorf("%s with %v: SaveQuantized left a file (stat: %v)", kind, bad, statErr)
			}
			qs, err := QuantizeModel(m, kind)
			if err == nil || qs != nil || !strings.Contains(err.Error(), target.Name) {
				t.Errorf("%s with %v: QuantizeModel = %d containers, error %v; want an error naming %s", kind, bad, len(qs), err, target.Name)
			}
			for _, p := range m.Params() {
				for i, v := range p.W.Data() {
					if w := before[p.Name][i]; math.Float32bits(v) != math.Float32bits(w) {
						t.Fatalf("%s with %v: QuantizeModel changed %s[%d] from %v to %v before failing", kind, bad, p.Name, i, w, v)
					}
				}
			}
		}
	}
}

// TestQuantizedBitFlipSweep: every section of a quantized checkpoint
// is CRC-protected — flipping any byte yields a typed *CorruptError
// (or a structural error), never silently-wrong weights.
func TestQuantizedBitFlipSweep(t *testing.T) {
	m, _ := vit.New(vit.Tiny(2, 8, 8), 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "quant.orbt")
	if err := SaveQuantized(path, m, quant.Q4_0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Sweep a spread of offsets: header, config, scales, data, CRCs.
	for off := 0; off < len(raw); off += 97 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		mp := filepath.Join(dir, "mut.orbt")
		if err := os.WriteFile(mp, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadQuantized(mp); err == nil {
			t.Errorf("flip at offset %d loaded cleanly", off)
		}
	}
}
