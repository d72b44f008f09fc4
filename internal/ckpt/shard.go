package ckpt

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"orbit/internal/parallel"
	"orbit/internal/tensor"
)

// Sharded training-state checkpoints. Each (TP, FSDP) grid position of
// a Hybrid-STOP run owns 1/FSDP of its TP shard's flattened parameters
// (plus the matching AdamW moments) and saves exactly that — no rank
// ever materializes the full model, so checkpointing obeys the same
// memory discipline as training (paper Sec. III). DDP replicas hold
// identical state, so only the D=0 plane saves.
//
// On disk a checkpoint is a directory:
//
//	manifest-s<STEP>.json             one generation's layout, counters,
//	                                  RNG stream, flat lengths, digests
//	manifest.json                     copy of the newest generation manifest
//	shard-s<STEP>-p<P>-t<T>-f<F>.bin  per-rank chunk weights + optimizer moments
//
// Saves are crash-safe even when the directory already holds an older
// checkpoint: shard file names are scoped by step, so a new save
// never rewrites a file the previous manifest references; every file
// (shards and manifest) is written to a temp name and renamed into
// place; and the manifest commits last. A crash at any point leaves
// either the old checkpoint fully loadable or the new one — never a
// mix. Shards from superseded steps are pruned after the manifest
// commits.
//
// Loading reshards when the resumed run's FSDP (or DDP) extent differs
// from the saved one — e.g. a 16-rank run resumed on 8 ranks after a
// node failure. The TP extent is part of the parameter sharding itself
// (column/row shards of each weight), so it must match; FSDP chunks
// are plain slices of the flat vector and reshard exactly.

const shardMagic = "ORBS"

// ManifestName is the manifest file name inside a checkpoint dir.
const ManifestName = "manifest.json"

// ShardLayout names the parallelism extents a sharded checkpoint was
// saved under (mirrors core.Layout without importing it). PP is the
// pipeline-stage count; a single-stage save omits it, and zero means 1.
type ShardLayout struct {
	TP   int `json:"tp"`
	PP   int `json:"pp,omitempty"`
	FSDP int `json:"fsdp"`
	DDP  int `json:"ddp"`
}

// Stages returns the pipeline-stage count, treating the omitted field
// as 1.
func (l ShardLayout) Stages() int {
	if l.PP < 1 {
		return 1
	}
	return l.PP
}

// Manifest is the checkpoint directory's metadata.
type Manifest struct {
	Version int         `json:"version"`
	Layout  ShardLayout `json:"layout"`
	// FlatLens is the logical (unpadded) flattened parameter length of
	// each block's T=0 TP shard; resharding needs it to strip and
	// re-apply divisibility padding.
	FlatLens []int `json:"flat_lens"`
	// FlatLensTP carries per-T-rank logical flat lengths, one row per T.
	// TP shards are not all the same length — the unsharded output
	// biases live only on rank T=0 — so a TP>1 manifest must carry every
	// row. Omitted when TP == 1: the one row is FlatLens.
	FlatLensTP [][]int `json:"flat_lens_tp,omitempty"`
	// Step is the number of completed training steps.
	Step int `json:"step"`
	// OptStep is the per-rank optimizer step counter.
	OptStep int `json:"opt_step"`
	// GlobalBatch is the layout-independent global batch size.
	GlobalBatch int `json:"global_batch"`
	// RNG is the data-stream RNG state after Step steps.
	RNG tensor.RNGState `json:"rng"`
	// StageBlocks records, per pipeline stage, the [start,end) range of
	// global block indices (rows of FlatLens) that stage's shards hold —
	// the stage coordinate of the manifest. The ranges must tile
	// [0,len(FlatLens)) in order. Omitted when the checkpoint was saved
	// with a single stage.
	StageBlocks [][2]int `json:"stage_blocks,omitempty"`
	// Shards lists the shard file names, one per (P,T,F) position in
	// (P,T,F) order.
	Shards []string `json:"shards"`
	// ShardCRCs carries the whole-file CRC32C digest of each shard,
	// aligned with Shards. Written since format version 3, the only
	// version a load accepts: a manifest without a digest per shard is
	// corrupt.
	ShardCRCs []uint32 `json:"shard_crcs,omitempty"`
}

// FlatLensFor returns the logical flat lengths of TP row t; a TP=1
// manifest's one row is FlatLens.
func (m *Manifest) FlatLensFor(t int) []int {
	if len(m.FlatLensTP) == 0 {
		return m.FlatLens
	}
	return m.FlatLensTP[t]
}

// StageRange returns the [start,end) global block range stage p's
// shards hold. Single-stage manifests (or those without the optional
// StageBlocks field) own the whole stack.
func (m *Manifest) StageRange(p int) [2]int {
	if p < len(m.StageBlocks) {
		return m.StageBlocks[p]
	}
	return [2]int{0, len(m.FlatLens)}
}

// maxShardExtent bounds the layout extents a manifest may declare; a
// larger value is a corrupt manifest, not a cluster.
const maxShardExtent = 1 << 16

// Validate rejects manifests whose fields could drive the loader into
// pathological allocation or out of the checkpoint directory: layout
// extents must be small positive integers, flat lengths non-negative,
// and shard names bare file names (no path separators — a manifest
// must not be able to read files outside its own directory).
func (m *Manifest) Validate() error {
	l := m.Layout
	if l.TP < 1 || l.FSDP < 1 || l.DDP < 1 || l.TP > maxShardExtent || l.FSDP > maxShardExtent || l.DDP > maxShardExtent {
		return fmt.Errorf("ckpt: implausible layout %d×%d×%d", l.TP, l.FSDP, l.DDP)
	}
	if l.PP < 0 || l.PP > maxShardExtent {
		return fmt.Errorf("ckpt: implausible stage count %d", l.PP)
	}
	if err := m.validateStages(); err != nil {
		return err
	}
	if m.Step < 0 || m.OptStep < 0 {
		return fmt.Errorf("ckpt: negative step counters %d/%d", m.Step, m.OptStep)
	}
	if n := len(m.FlatLensTP); n != l.TP && (n != 0 || l.TP > 1) {
		return fmt.Errorf("ckpt: %d per-TP length rows (flat_lens_tp) for TP=%d", n, l.TP)
	}
	rows := append([][]int{m.FlatLens}, m.FlatLensTP...)
	for _, row := range rows {
		if len(row) != len(m.FlatLens) {
			return fmt.Errorf("ckpt: per-TP length row has %d blocks, manifest has %d", len(row), len(m.FlatLens))
		}
		for b, n := range row {
			if n < 0 || n > maxSectionElems {
				return fmt.Errorf("ckpt: implausible flat length %d for block %d", n, b)
			}
		}
	}
	for _, name := range m.Shards {
		if name == "" || name != filepath.Base(name) || name == "." || name == ".." {
			return fmt.Errorf("ckpt: shard name %q is not a bare file name", name)
		}
	}
	return nil
}

// validateStages rejects stage coordinates that could misdirect
// the loader: a multi-stage manifest must carry exactly one block
// range per stage, and the ranges must tile the block list in order —
// no out-of-range end, no overlap, no gap, no empty stage.
func (m *Manifest) validateStages() error {
	stages := m.Layout.Stages()
	if len(m.StageBlocks) == 0 {
		if stages > 1 {
			return fmt.Errorf("ckpt: %d stages but no stage_blocks", stages)
		}
		return nil
	}
	if len(m.StageBlocks) != stages {
		return fmt.Errorf("ckpt: %d stage_blocks for %d stages", len(m.StageBlocks), stages)
	}
	next := 0
	for p, rng := range m.StageBlocks {
		if rng[0] != next {
			return fmt.Errorf("ckpt: stage %d blocks start at %d, want %d (ranges must tile the block list)", p, rng[0], next)
		}
		if rng[1] <= rng[0] {
			return fmt.Errorf("ckpt: stage %d owns no blocks (range %v)", p, rng)
		}
		if rng[1] > len(m.FlatLens) {
			return fmt.Errorf("ckpt: stage %d blocks end at %d, manifest has %d blocks", p, rng[1], len(m.FlatLens))
		}
		next = rng[1]
	}
	if next != len(m.FlatLens) {
		return fmt.Errorf("ckpt: stage ranges cover %d of %d blocks", next, len(m.FlatLens))
	}
	return nil
}

// BlockShard is one rank's slice of one block: chunk weights and the
// matching AdamW moment chunks, all padded-chunk length.
type BlockShard struct {
	W, M, V []float32
}

// RankShard is everything one (P,T,F) grid position owns. P is the
// pipeline-stage coordinate; its identity is carried by the manifest
// (shard order, file name, and digest), not the shard binary.
type RankShard struct {
	P, T, F int
	Blocks  []BlockShard
}

// ShardFileName returns the shard file name for a (P,T,F) grid
// position at a step. The step scope is what makes overwriting saves
// crash-safe: the old manifest's files are never touched.
func ShardFileName(step, p, t, f int) string {
	return fmt.Sprintf("shard-s%d-p%d-t%d-f%d.bin", step, p, t, f)
}

// GenManifestName returns the step-scoped generation manifest name
// inside a checkpoint dir. ManifestName is the newest-commit pointer,
// a byte-identical copy of the newest generation manifest.
func GenManifestName(step int) string {
	return fmt.Sprintf("manifest-s%d.json", step)
}

// SaveShardedKeep writes a complete sharded checkpoint into dir,
// creating it if needed, and retains the newest `keep` generations
// (keep <= 1 keeps only the newest). Shard files (step-scoped
// names, atomically renamed into place) are written first — each
// file's CRC32C digest is recorded in the manifest — then the
// step-scoped generation manifest, then ManifestName commits as the
// newest-generation pointer; only then are manifests and shards of
// expired generations pruned. A crash anywhere leaves a loadable
// checkpoint.
func SaveShardedKeep(dir string, man *Manifest, shards []*RankShard, keep int) error {
	stages := man.Layout.Stages()
	if len(shards) != stages*man.Layout.TP*man.Layout.FSDP {
		return fmt.Errorf("ckpt: %d shards for a %d×%d×%d grid", len(shards), stages, man.Layout.TP, man.Layout.FSDP)
	}
	if keep < 1 {
		keep = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	man.Version = int(Version)
	man.Shards = man.Shards[:0]
	man.ShardCRCs = man.ShardCRCs[:0]
	ordered := slices.Clone(shards)
	slices.SortFunc(ordered, func(a, b *RankShard) int {
		return cmp.Or(cmp.Compare(a.P, b.P), cmp.Compare(a.T, b.T), cmp.Compare(a.F, b.F))
	})
	for _, sh := range ordered {
		name := ShardFileName(man.Step, sh.P, sh.T, sh.F)
		crc, err := writeShardFile(filepath.Join(dir, name), sh)
		if err != nil {
			return err
		}
		man.Shards = append(man.Shards, name)
		man.ShardCRCs = append(man.ShardCRCs, crc)
	}
	if err := writeManifest(dir, man, GenManifestName(man.Step), ManifestName); err != nil {
		return err
	}
	gcGenerations(dir, man, keep)
	return nil
}

// writeManifest writes man atomically under each of names in dir.
func writeManifest(dir string, man *Manifest, names ...string) error {
	manJSON, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	for _, name := range names {
		err = atomicWrite(filepath.Join(dir, name), func(w io.Writer) error {
			_, werr := w.Write(manJSON)
			return werr
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// gcGenerations prunes generation manifests beyond keep and any shard
// file no retained manifest references. Best-effort: GC failures must
// never fail a save.
func gcGenerations(dir string, cur *Manifest, keep int) {
	live := make(map[string]bool, len(cur.Shards))
	for _, name := range cur.Shards {
		live[name] = true
	}
	retained := 0
	for _, g := range shardGenerations(dir) {
		if g.step == cur.Step {
			// The generation just written is always retained (and its
			// shards are already in the live set).
			continue
		}
		if retained < keep-1 {
			retained++
			if man, err := readManifest(filepath.Join(dir, g.name)); err == nil {
				for _, name := range man.Shards {
					live[name] = true
				}
			}
			continue
		}
		os.Remove(filepath.Join(dir, g.name))
		os.Remove(filepath.Join(dir, g.name+quarantineSuffix))
	}
	pruneStaleShards(dir, live)
}

// pruneStaleShards best-effort removes shard files no retained
// manifest references (leftovers from expired generations or crashed
// attempts).
func pruneStaleShards(dir string, live map[string]bool) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".bin") && !live[name] {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// shardGenerations lists the generation manifests in dir, newest step
// first.
func shardGenerations(dir string) []generation {
	return generations(dir, "manifest-s", ".json")
}

// readManifest parses and validates a manifest file. Structural
// failures come back as *CorruptError.
func readManifest(path string) (*Manifest, error) {
	manJSON, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(manJSON, &man); err != nil {
		return nil, &CorruptError{Path: path, Section: "manifest", Err: err}
	}
	if man.Version != int(Version) {
		return nil, &CorruptError{Path: path, Section: "manifest",
			Err: fmt.Errorf("unsupported sharded version %d", man.Version)}
	}
	if err := man.Validate(); err != nil {
		return nil, &CorruptError{Path: path, Section: "manifest", Err: err}
	}
	if want := man.Layout.Stages() * man.Layout.TP * man.Layout.FSDP; len(man.Shards) != want || len(man.ShardCRCs) != want {
		return nil, &CorruptError{Path: path, Section: "manifest",
			Err: fmt.Errorf("manifest lists %d shards and %d digests for a %d×%d×%d grid",
				len(man.Shards), len(man.ShardCRCs), man.Layout.Stages(), man.Layout.TP, man.Layout.FSDP)}
	}
	return &man, nil
}

// loadShardedFrom reads the generation manifestFile names in dir,
// returning the manifest and all shards in (P,T,F) order. Every shard
// digest is verified before any shard byte is deserialized; corruption
// anywhere yields a *CorruptError.
func loadShardedFrom(dir, manifestFile string) (*Manifest, []*RankShard, error) {
	man, err := readManifest(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, nil, err
	}
	var shards []*RankShard
	for p := 0; p < man.Layout.Stages(); p++ {
		rng := man.StageRange(p)
		for t := 0; t < man.Layout.TP; t++ {
			for f := 0; f < man.Layout.FSDP; f++ {
				i := (p*man.Layout.TP+t)*man.Layout.FSDP + f
				name := man.Shards[i]
				path := filepath.Join(dir, name)
				data, err := os.ReadFile(path)
				if err != nil {
					// A shard the manifest references but the directory lacks
					// means the generation is incomplete — corruption, not
					// environment.
					return nil, nil, &CorruptError{Path: path, Section: "shard file", Err: err}
				}
				if got := crc32.Checksum(data, castagnoli); got != man.ShardCRCs[i] {
					return nil, nil, &CorruptError{Path: path, Section: "shard digest",
						Err: fmt.Errorf("crc32c mismatch: manifest %08x, file %08x", man.ShardCRCs[i], got)}
				}
				sh, err := readShard(bytes.NewReader(data), path)
				if err != nil {
					return nil, nil, corruptAt(path, err)
				}
				if sh.T != t || sh.F != f {
					return nil, nil, &CorruptError{Path: path,
						Err: fmt.Errorf("shard file claims position (%d,%d), manifest says (%d,%d)", sh.T, sh.F, t, f)}
				}
				// The stage coordinate is manifest-positional: the shard
				// binary doesn't carry it, but the per-stage block count
				// pins a shard listed under the wrong stage.
				sh.P = p
				if len(sh.Blocks) != rng[1]-rng[0] {
					return nil, nil, &CorruptError{Path: path,
						Err: fmt.Errorf("shard (%d,%d,%d) has %d blocks, stage owns %d", p, t, f, len(sh.Blocks), rng[1]-rng[0])}
				}
				for b, blk := range sh.Blocks {
					if want := parallel.Padded(man.FlatLensFor(t)[rng[0]+b], man.Layout.FSDP) / man.Layout.FSDP; len(blk.W) != want {
						return nil, nil, &CorruptError{Path: path,
							Err: fmt.Errorf("shard (%d,%d,%d) block %d chunk length %d, want %d", p, t, f, rng[0]+b, len(blk.W), want)}
					}
				}
				shards = append(shards, sh)
			}
		}
	}
	return man, shards, nil
}

// LoadShardedLatestValid resumes from the newest checkpoint
// generation in dir that passes digest verification. A generation
// that fails is quarantined — its manifest renamed aside with a
// ".quarantined" suffix so nothing loads it again — and the next
// older generation is tried. On fallback the committed ManifestName
// pointer is repaired to the good generation. Returns the manifest,
// shards, and the quarantined manifest names.
func LoadShardedLatestValid(dir string) (*Manifest, []*RankShard, []string, error) {
	gens := shardGenerations(dir)
	if len(gens) == 0 {
		return nil, nil, nil, fmt.Errorf("ckpt: no checkpoint generation in %s: %w", dir, os.ErrNotExist)
	}
	var quarantined []string
	var lastErr error
	for _, g := range gens {
		man, shards, err := loadShardedFrom(dir, g.name)
		if err == nil {
			if len(quarantined) > 0 {
				// Best-effort: the generation manifests stay the source
				// of truth.
				writeManifest(dir, man, ManifestName)
			}
			return man, shards, quarantined, nil
		}
		lastErr = err
		var ce *CorruptError
		if !errors.As(err, &ce) {
			return nil, nil, quarantined, err
		}
		if os.Rename(filepath.Join(dir, g.name), filepath.Join(dir, g.name+quarantineSuffix)) == nil {
			quarantined = append(quarantined, g.name)
		}
	}
	return nil, nil, quarantined, fmt.Errorf("ckpt: no valid checkpoint generation in %s: %w", dir, lastErr)
}

// HasManifest reports whether dir holds a generation manifest that
// LoadShardedLatestValid would try; quarantined generations and a
// bare commit pointer do not count.
func HasManifest(dir string) bool {
	return len(shardGenerations(dir)) > 0
}

// blockFields address a BlockShard's weight and moment chunks.
var blockFields = []func(*BlockShard) *[]float32{
	func(b *BlockShard) *[]float32 { return &b.W },
	func(b *BlockShard) *[]float32 { return &b.M },
	func(b *BlockShard) *[]float32 { return &b.V },
}

// Reshard redistributes a loaded checkpoint onto new pipeline stages —
// block ranges that must tile the manifest's block list, nil for one
// stage — and a new FSDP extent, returning shards in (P',T,F') order.
// The TP extent cannot change: TP shards partition individual weight
// matrices, not the flat vector. A block's FSDP chunks depend only on
// (T, F, logical length), never on which stage held it, so the regroup
// moves whole blocks; the chunks are plain slices of the logical flat
// vector, so the re-chunk is exact too. Every value comes through
// bit-identical; an unchanged layout returns shards itself.
func Reshard(man *Manifest, shards []*RankShard, stages [][2]int, fsdp int) ([]*RankShard, error) {
	if fsdp < 1 {
		return nil, fmt.Errorf("ckpt: reshard to FSDP=%d", fsdp)
	}
	tp, oldF := man.Layout.TP, man.Layout.FSDP
	oldStages := man.Layout.Stages()
	if len(shards) != oldStages*tp*oldF {
		return nil, fmt.Errorf("ckpt: %d shards for a %d×%d×%d grid", len(shards), oldStages, tp, oldF)
	}
	if len(stages) == 0 {
		stages = [][2]int{{0, len(man.FlatLens)}}
	}
	tiling := Manifest{Layout: ShardLayout{PP: len(stages)}, FlatLens: man.FlatLens, StageBlocks: stages}
	if err := tiling.validateStages(); err != nil {
		return nil, err
	}
	same := fsdp == oldF && len(stages) == oldStages
	for p := 0; same && p < oldStages; p++ {
		same = stages[p] == man.StageRange(p)
	}
	if same {
		return shards, nil
	}
	// home[b] locates block b in the saved partition: the T = 0 row
	// (P·TP) of the stage that holds it and its stage-local index.
	type loc struct{ row, local int }
	home := make([]loc, len(man.FlatLens))
	for p := 0; p < oldStages; p++ {
		rng := man.StageRange(p)
		for b := rng[0]; b < rng[1]; b++ {
			home[b] = loc{row: p * tp, local: b - rng[0]}
		}
	}
	out := make([]*RankShard, 0, len(stages)*tp*fsdp)
	for p, rng := range stages {
		for t := 0; t < tp; t++ {
			row := make([]*RankShard, fsdp)
			for f := range row {
				row[f] = &RankShard{P: p, T: t, F: f, Blocks: make([]BlockShard, rng[1]-rng[0])}
			}
			// Logical lengths are per TP row: T>0 shards are shorter
			// than T=0 (the unsharded output biases live only on rank 0).
			lens := man.FlatLensFor(t)
			for b := rng[0]; b < rng[1]; b++ {
				h := home[b]
				old := shards[(h.row+t)*oldF : (h.row+t+1)*oldF]
				if fsdp == oldF {
					for f, sh := range old {
						row[f].Blocks[b-rng[0]] = sh.Blocks[h.local]
					}
					continue
				}
				logical := lens[b]
				for _, field := range blockFields {
					// Reassemble the logical flat vector from the old chunks…
					full := make([]float32, 0, parallel.Padded(logical, oldF))
					for _, sh := range old {
						full = append(full, *field(&sh.Blocks[h.local])...)
					}
					if len(full) < logical {
						return nil, fmt.Errorf("ckpt: block %d flat length %d < logical %d", b, len(full), logical)
					}
					// …then re-pad and slice for the new extent.
					chunkLen := parallel.Padded(logical, fsdp) / fsdp
					for f := range row {
						chunk := make([]float32, chunkLen)
						if lo := f * chunkLen; lo < logical {
							copy(chunk, full[lo:min(lo+chunkLen, logical)])
						}
						*field(&row[f].Blocks[b-rng[0]]) = chunk
					}
				}
			}
			out = append(out, row...)
		}
	}
	return out, nil
}

// writeShardFile writes one shard, returning the CRC32C digest of the
// file's bytes for the manifest.
func writeShardFile(path string, sh *RankShard) (uint32, error) {
	var crc uint32
	err := atomicWrite(path, func(w io.Writer) error {
		cw := newCRCWriter(w)
		if _, err := cw.Write([]byte(shardMagic)); err != nil {
			return err
		}
		if err := binary.Write(cw, binary.LittleEndian, Version); err != nil {
			return err
		}
		if err := binary.Write(cw, binary.LittleEndian, uint16(sh.T)); err != nil {
			return err
		}
		if err := binary.Write(cw, binary.LittleEndian, uint16(sh.F)); err != nil {
			return err
		}
		if err := binary.Write(cw, binary.LittleEndian, uint32(len(sh.Blocks))); err != nil {
			return err
		}
		for b := range sh.Blocks {
			blk := &sh.Blocks[b]
			if len(blk.M) != len(blk.W) || len(blk.V) != len(blk.W) {
				return fmt.Errorf("ckpt: shard (%d,%d) block %d has mismatched W/M/V lengths", sh.T, sh.F, b)
			}
			for _, field := range blockFields {
				if err := writeF32Section(cw, *field(blk)); err != nil {
					return err
				}
			}
		}
		crc = cw.sum
		return nil
	})
	return crc, err
}

// readShard parses a shard file's bytes. Integrity is the manifest's
// whole-file digest, not in-band checksums.
func readShard(r io.Reader, path string) (*RankShard, error) {
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("ckpt: truncated shard %s: %w", path, err)
	}
	if string(head) != shardMagic {
		return nil, fmt.Errorf("ckpt: bad shard magic %q in %s", head, path)
	}
	var ver uint32
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("ckpt: unsupported shard version %d in %s", ver, path)
	}
	var t16, f16 uint16
	if err := binary.Read(r, binary.LittleEndian, &t16); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &f16); err != nil {
		return nil, err
	}
	var nblocks uint32
	if err := binary.Read(r, binary.LittleEndian, &nblocks); err != nil {
		return nil, err
	}
	sh := &RankShard{T: int(t16), F: int(f16)}
	for b := uint32(0); b < nblocks; b++ {
		w, err := readF32Section(r, -1)
		if err != nil {
			return nil, fmt.Errorf("ckpt: shard %s block %d weights: %w", path, b, err)
		}
		m, err := readF32Section(r, len(w))
		if err != nil {
			return nil, fmt.Errorf("ckpt: shard %s block %d moment m: %w", path, b, err)
		}
		v, err := readF32Section(r, len(w))
		if err != nil {
			return nil, fmt.Errorf("ckpt: shard %s block %d moment v: %w", path, b, err)
		}
		sh.Blocks = append(sh.Blocks, BlockShard{W: w, M: m, V: v})
	}
	return sh, nil
}
