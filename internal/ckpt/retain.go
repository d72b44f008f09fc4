package ckpt

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Retained checkpoint generations. A single latest-only checkpoint is
// a single point of failure: one flipped bit and the whole run is
// unrecoverable. SaveTrainStateRetained keeps a ring of the last
// `keep` step-scoped generation files next to the base path, and
// LoadLatestValidState walks the ring newest-first, quarantining any
// generation that fails integrity verification and falling back to
// the previous good one. The sharded-directory analogue lives in
// shard.go (SaveShardedKeep / LoadShardedLatestValid).

// quarantineSuffix marks a checkpoint file that failed verification
// and was set aside so retries and GC never mistake it for live.
const quarantineSuffix = ".quarantined"

// stateGenPath returns the step-scoped generation path for a base
// checkpoint path: base.g<step>.
func stateGenPath(base string, step int) string {
	return fmt.Sprintf("%s.g%d", base, step)
}

// generation is one retained checkpoint generation: its step and the
// file name it was found under.
type generation struct {
	step int
	name string
}

// generations lists the files in dir named prefix<step>suffix, newest
// step first. It reads the directory instead of globbing, so a glob
// metacharacter in dir or prefix stands for itself, and callers open
// the listed name rather than re-deriving it from the step.
func generations(dir, prefix, suffix string) []generation {
	entries, _ := os.ReadDir(dir)
	var gens []generation
	for _, e := range entries {
		digits, ok := strings.CutPrefix(e.Name(), prefix)
		if !ok {
			continue
		}
		if digits, ok = strings.CutSuffix(digits, suffix); !ok {
			continue
		}
		if step, err := strconv.Atoi(digits); err == nil && step >= 0 {
			gens = append(gens, generation{step: step, name: e.Name()})
		}
	}
	slices.SortFunc(gens, func(a, b generation) int { return cmp.Compare(b.step, a.step) })
	return gens
}

// stateGenerations lists base's retained generation files, newest
// step first, as paths.
func stateGenerations(base string) []string {
	dir := filepath.Dir(base)
	var paths []string
	for _, g := range generations(dir, filepath.Base(base)+".g", "") {
		paths = append(paths, filepath.Join(dir, g.name))
	}
	return paths
}

// SaveTrainStateRetained writes the training state to a step-scoped
// generation file (base.g<step>), copies it over base as the
// newest-commit pointer, and prunes generations beyond keep (keep <=
// 1 retains only the newest). base stays a plain, fully loadable
// checkpoint for tools that know nothing about generations.
func SaveTrainStateRetained(base string, st *TrainState, half bool, keep int) error {
	if keep < 1 {
		keep = 1
	}
	gen := stateGenPath(base, st.Meta.Step)
	if err := SaveTrainState(gen, st, half); err != nil {
		return err
	}
	// A copy, not a hardlink: a generation and the base pointer must
	// not share bytes, or corruption of one silently corrupts both.
	if err := copyFileAtomic(gen, base); err != nil {
		return err
	}
	for i, path := range stateGenerations(base) {
		if i >= keep {
			os.Remove(path)
			os.Remove(path + quarantineSuffix)
		}
	}
	return nil
}

// LoadLatestValidState resumes from the newest generation of base
// that passes integrity verification, trying base itself last (a
// SaveTrainState save, as `-keep 0` writes, has no generation ring).
// A generation that fails with *CorruptError is renamed aside with a
// ".quarantined" suffix and skipped; other errors (a weights-only
// file, permissions) abort immediately — they are usage or environment
// problems, not corruption. Returns the state, the path it was loaded
// from, and the quarantined paths.
func LoadLatestValidState(base string) (*TrainState, string, []string, error) {
	candidates := append(stateGenerations(base), base)
	var quarantined []string
	var lastCorrupt error
	for _, path := range candidates {
		st, err := LoadTrainState(path)
		if err == nil {
			return st, path, quarantined, nil
		}
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			return nil, "", quarantined, err
		}
		lastCorrupt = err
		if os.Rename(path, path+quarantineSuffix) == nil {
			quarantined = append(quarantined, path)
		}
	}
	if lastCorrupt != nil {
		return nil, "", quarantined, fmt.Errorf("ckpt: no valid checkpoint generation at %s: %w", base, lastCorrupt)
	}
	return nil, "", quarantined, fmt.Errorf("ckpt: no checkpoint at %s: %w", base, os.ErrNotExist)
}

// copyFileAtomic copies src over dst with the same temp-and-rename
// discipline as checkpoint writes.
func copyFileAtomic(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return atomicWrite(dst, func(w io.Writer) error {
		_, cerr := io.Copy(w, in)
		return cerr
	})
}
