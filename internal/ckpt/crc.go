package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Integrity layer. Every section of a single-file checkpoint
// (header+config, each parameter, the training meta, each optimizer
// moment) is followed by the CRC32C of its bytes, and sharded
// manifests record a whole-file CRC32C digest per shard. Loads verify
// before deserializing: a flipped bit anywhere in a checkpoint
// surfaces as a typed *CorruptError instead of silently-wrong weights.
// Castagnoli is the polynomial storage systems standardize on, and the
// stdlib implementation is hardware-accelerated on amd64/arm64, so the
// verify cost is a memory sweep, not a bottleneck.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a checkpoint that failed structural or checksum
// validation: truncated sections, bad magic, checksum or digest
// mismatches, implausible length prefixes. Callers distinguish it from
// environmental errors (missing file, permission) with errors.As and
// fall back to an older checkpoint generation instead of aborting.
type CorruptError struct {
	// Path is the file that failed validation.
	Path string
	// Section names the offending section when known ("config",
	// a parameter name, "shard digest", …).
	Section string
	// Err is the underlying validation failure.
	Err error
}

func (e *CorruptError) Error() string {
	if e.Section != "" {
		return fmt.Sprintf("ckpt: corrupt checkpoint %s (section %s): %v", e.Path, e.Section, e.Err)
	}
	return fmt.Sprintf("ckpt: corrupt checkpoint %s: %v", e.Path, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// corruptAt wraps a structural load failure into a *CorruptError,
// leaving errors that already carry corruption context untouched.
func corruptAt(path string, err error) error {
	if err == nil {
		return nil
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		return err
	}
	return &CorruptError{Path: path, Err: err}
}

// crcWriter tees every written byte into a running CRC32C. section
// commits the checksum of the bytes written since the last boundary,
// emitting it to the underlying writer (outside the next section's
// sum).
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func newCRCWriter(w io.Writer) *crcWriter { return &crcWriter{w: w} }

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	return n, err
}

func (c *crcWriter) section() error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], c.sum)
	c.sum = 0
	_, err := c.w.Write(buf[:])
	return err
}

// crcReader mirrors crcWriter on the read side.
type crcReader struct {
	r    io.Reader
	path string
	sum  uint32
}

func newCRCReader(r io.Reader, path string) *crcReader { return &crcReader{r: r, path: path} }

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	return n, err
}

// section verifies the stored checksum of the bytes read since the
// last boundary. The CRC bytes themselves are read from the underlying
// stream, outside the running sum.
func (c *crcReader) section(name string) error {
	sum := c.sum
	c.sum = 0
	var buf [4]byte
	if _, err := io.ReadFull(c.r, buf[:]); err != nil {
		return &CorruptError{Path: c.path, Section: name, Err: fmt.Errorf("truncated checksum: %w", err)}
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != sum {
		return &CorruptError{Path: c.path, Section: name,
			Err: fmt.Errorf("crc32c mismatch: stored %08x, computed %08x", got, sum)}
	}
	return nil
}
