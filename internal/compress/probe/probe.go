// Package probe implements a cheap entropy pre-probe that decides, before
// any codec runs, whether a block is worth compressing at all.
//
// There is one verdict, Hopeless, taken at one site: stream.Writer asks it
// once per cut block, before routing the block to a codec or to stored-raw
// framing. The codecs do not probe. Its calibration is the package constants
// below; nothing is tunable, because no workload the repo measures reaches a
// threshold (docs/performance.md, "The entropy pre-probe").
//
// The probe samples a few KB spread across the block and applies two tests
// in order:
//
//  1. A byte-histogram Shannon-entropy gate. Sampled entropy at or below
//     EntropyBits means the block is plainly compressible (text, sparse
//     binary, logs) and the probe accepts immediately.
//  2. A miniature LZ match probe over the same sample. High sampled entropy
//     alone cannot condemn a block: JPEG-style entropy-coded streams sit at
//     ~7.9 bits/byte yet still hold a few percent of short repeats (marker
//     stuffing, zero-coefficient runs) that the real codecs exploit. The
//     match probe hashes every 4-byte window in the sample and counts how
//     often a window recurs; a hit rate at or above MinHitRate keeps the
//     block on the compression path.
//
// Only blocks that fail both tests — near-uniform byte distribution and no
// recurring 4-byte windows, i.e. already-compressed or encrypted payloads —
// are declared hopeless and sent straight to stored-raw framing, skipping
// the full compression cost.
//
// The probe reads O(sample) bytes and allocates nothing; Hopeless is safe
// for concurrent use. Probing a 128 KB block costs roughly 2 % of one
// lzfast compression pass over the same block.
package probe

import (
	"encoding/binary"
	"math"
)

// The calibration, against the repo's corpus kinds (internal/corpus): High
// (~0.6 bits/byte) and Moderate (~4.1) pass the entropy gate; Low (~7.9,
// JPEG-like) fails it but is rescued by the match probe (hit rate well above
// MinHitRate); uniform random and already-compressed payloads fail both and
// are skipped.
const (
	// MinLen is the smallest block the probe will judge. Shorter blocks
	// are always kept: the sample would be most of the block anyway, and
	// the compression cost being saved is small.
	MinLen = 4096

	// Chunks windows of ChunkBytes each form the sample, spread evenly
	// across the block so that a block with mixed regions (e.g. text
	// followed by an embedded image) is seen in every region. A block of
	// exactly MinLen bytes is tiled by them.
	Chunks     = 4
	ChunkBytes = 1024

	// EntropyBits is the sampled Shannon-entropy threshold (bits/byte)
	// at or below which a block is accepted without the match probe.
	EntropyBits = 7.2

	// MinHitRate is the minimum fraction of sampled 4-byte windows that
	// must recur for a high-entropy block to stay on the compression
	// path. Uniform random data measures ~0 here; JPEG-like entropy
	// streams measure several percent.
	MinHitRate = 0.02
)

// Hopeless reports whether src is judged incompressible: true means the
// caller should skip compression and frame the block stored-raw. It never
// returns true for blocks shorter than MinLen.
func Hopeless(src []byte) bool {
	if len(src) < MinLen {
		return false
	}
	if sampledEntropy(src) <= EntropyBits {
		return false
	}
	return sampledHitRate(src) < MinHitRate
}

// Config is the probe as a value, for callers written against the method
// form: Default().Hopeless(b) is Hopeless(b). It has no fields.
type Config struct{}

// Default returns the probe.
func Default() Config { return Config{} }

// Hopeless is the package function Hopeless.
func (Config) Hopeless(src []byte) bool { return Hopeless(src) }

// chunk returns the i-th sample window of src (i in [0, Chunks)), spread
// evenly so chunk 0 starts at the block head and the last chunk ends at
// the block tail.
func chunk(src []byte, i int) []byte {
	off := (len(src) - ChunkBytes) * i / (Chunks - 1)
	return src[off : off+ChunkBytes]
}

// sampledEntropy folds all sample windows into one byte histogram and
// returns its Shannon entropy in bits per byte.
func sampledEntropy(src []byte) float64 {
	var hist [256]uint32
	for i := 0; i < Chunks; i++ {
		for _, b := range chunk(src, i) {
			hist[b]++
		}
	}
	inv := 1 / float64(Chunks*ChunkBytes)
	e := 0.0
	for _, n := range hist {
		if n == 0 {
			continue
		}
		p := float64(n) * inv
		e -= p * math.Log2(p)
	}
	return e
}

// probeHashLog sizes the match probe's table: 4096 slots comfortably
// covers a 1 KB chunk's distinct 4-byte windows.
const probeHashLog = 12

// sampledHitRate averages the per-chunk 4-byte recurrence rate. Each
// chunk is probed independently so a "match" never spans two sample
// windows that are far apart in the real block.
func sampledHitRate(src []byte) float64 {
	hits := 0
	for i := 0; i < Chunks; i++ {
		hits += chunkHits(chunk(src, i))
	}
	return float64(hits) / float64(Chunks*(ChunkBytes-3))
}

// chunkHits counts the positions of one sample window whose 4-byte window
// exactly matches an earlier one in the same sample window (single-probe
// hash table, so the count is a floor — collisions only ever hide matches,
// never invent them).
func chunkHits(win []byte) int {
	var table [1 << probeHashLog]uint16
	hits := 0
	for pos := 0; pos+4 <= len(win); pos++ {
		u := binary.LittleEndian.Uint32(win[pos:])
		h := (u * 2654435761) >> (32 - probeHashLog)
		if prev := table[h]; prev != 0 && binary.LittleEndian.Uint32(win[prev-1:]) == u {
			hits++
		}
		table[h] = uint16(pos + 1)
	}
	return hits
}
