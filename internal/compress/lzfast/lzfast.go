// Package lzfast implements a from-scratch, byte-oriented LZ77 block
// compressor in the spirit of QuickLZ/LZ4: extremely fast greedy parsing with
// a small hash table, token-based output, 16-bit offsets.
//
// It stands in for the QuickLZ library used by the paper at compression
// levels LIGHT and MEDIUM (Section III-B): the same codec is exposed in two
// parameterizations, a greedy single-probe mode (Fast, encode_fast.go) and
// a hash-chain lazy-matching mode (HC, encode_hc.go) that spends about
// four times the CPU on text for a better ratio, as QuickLZ level 1 vs.
// level 3 do.
//
// # Wire format
//
// A compressed block is a sequence of "sequences". Each sequence is:
//
//	token    1 byte:  high nibble = literal length (15 = extended),
//	                  low nibble  = match length - 4 (15 = extended)
//	extLit   0+ bytes of 255, then one byte < 255 (only if literal nibble = 15)
//	literals litLen bytes copied verbatim
//	offset   2 bytes little endian, 1..65535 (absent in the final sequence)
//	extMatch 0+ bytes of 255, then one byte < 255 (only if match nibble = 15)
//
// The final sequence of a block consists of a token and literals only; the
// decoder detects it by reaching the end of the input after the literal copy.
// Matches always refer to previously decoded bytes of the same block, so
// blocks are fully self-contained.
package lzfast

import (
	"encoding/binary"
	"fmt"
	"sync"

	"adaptio/internal/compress"
)

const (
	minMatch  = 4
	maxOffset = 65535

	// hashLog is the log2 size of the fast-mode hash table.
	hashLog = 13

	// tinyOverlapOffset: the fast parse refuses minimum-length matches
	// closer than this. A length-4 match at offset < 8 saves exactly one
	// byte of output but forces the decoder through a serialized
	// byte-at-a-time overlap copy; on barely-compressible (JPEG-like)
	// data these account for nearly half of all matches, so declining
	// them trades <1% of ratio for a major decode-throughput win.
	tinyOverlapOffset = 8
)

// Fast is the greedy single-probe parameterization (paper level LIGHT).
type Fast struct{}

// ID implements compress.Codec.
func (Fast) ID() uint8 { return compress.IDLZFast }

// Name implements compress.Codec.
func (Fast) Name() string { return "lzfast" }

// Compress implements compress.Codec.
func (Fast) Compress(dst, src []byte) []byte {
	return compressFast(dst, src)
}

// Decompress implements compress.Codec.
func (Fast) Decompress(dst, src []byte, decompressedSize int) ([]byte, error) {
	return decompressBlock(dst, src, decompressedSize)
}

// HC is the hash-chain deep-search parameterization (paper level MEDIUM).
// Depth is how many earlier positions a search may examine without finding
// a longer match; each one that does lengthen it hands a few visits back,
// so the effort follows the progress. The zero value uses a default depth
// of 12, the operating point docs/performance.md picks from its sweep.
type HC struct {
	Depth int
}

// ID implements compress.Codec.
func (HC) ID() uint8 { return compress.IDLZFastH }

// Name implements compress.Codec.
func (HC) Name() string { return "lzfast-hc" }

// Compress implements compress.Codec.
func (h HC) Compress(dst, src []byte) []byte {
	return compressHC(dst, src, h.point(len(src)))
}

// point is the operating point h compresses an n-byte block at.
func (h HC) point(n int) hcParams {
	depth := h.Depth
	if depth <= 0 {
		depth = hcDefaultDepth
	}
	return hcPoint(depth, hcRefund, hcKeyBytes(n), n)
}

// Decompress implements compress.Codec.
func (HC) Decompress(dst, src []byte, decompressedSize int) ([]byte, error) {
	return decompressBlock(dst, src, decompressedSize)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// hash5 keys the fast-mode table on the low 5 bytes of a little-endian
// 64-bit load (the same choice reference LZ4 makes on 64-bit hosts):
// prose-like data is dense with 4-byte-only matches whose emit overhead
// rivals the bytes they save, and a 5-byte key never surfaces them. The
// candidate check still verifies only 4 bytes, so a hash collision can
// still yield a legal minMatch match.
func hash5(u uint64, bits uint) uint32 {
	return uint32(((u << 24) * prime5) >> (64 - bits))
}

// prime5 is the multiplier reference LZ4 hashes 5 bytes with.
const prime5 = 889523592379

// matchLen returns the length of the common prefix of src[a:] and src[b:],
// with b > a, bounded by len(src)-b.
func matchLen(src []byte, a, b int) int {
	n := 0
	limit := len(src) - b
	for n+8 <= limit && binary.LittleEndian.Uint64(src[a+n:]) == binary.LittleEndian.Uint64(src[b+n:]) {
		n += 8
	}
	for n < limit && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// fastTable is the fast-mode hash table, pooled across compressFast calls.
// It holds uint16(position): two-byte entries put 1<<13 of them in 16 KB of
// L1, twice what positions stored whole would fit there, so a probe finds a
// candidate about twice as often for the same cache footprint. An entry
// resolves to the one position in the 64 KB behind i that is congruent to it
// (see candidate), so a block longer than 64 KB needs no wider entry. The
// price is that an entry cannot say whether it was ever written: the table
// is cleared at the start of every call, which is also what keeps the output
// a function of src alone, never of what the pooled table last saw. The clear
// is a fixed 0.12 us per call: well under 1 % of a 128 KB block's encode
// time, but 0.12 of the 0.42 us a 128-byte block takes; the denser table
// earns it back from about 1 KB up (docs/performance.md).
type fastTable [1 << hashLog]uint16

var fastPool = sync.Pool{New: func() any { return new(fastTable) }}

// candidate resolves the table entry read at position i to the position it
// may stand for, and the distance back to it. dist is the 16-bit difference,
// always in [0, maxOffset], so every candidate is inside the offset window
// by construction; and i-dist is never negative, because while i < 1<<16
// every entry is either a position written earlier in this call or the
// cleared 0. What the entry cannot promise is that the position it names was
// the one stored — a cleared slot reads as position 0, and past 64 KB an old
// entry aliases to a younger position — so the caller's 4-byte verify alone
// decides whether there is a match. Any verified position in the window is a
// legal one. dist 0 (the slot last saw i-65536, or is cleared and i is a
// multiple of 65536) would name i itself and is rejected by the caller.
func candidate(entry uint16, i int) (cand, dist int) {
	dist = int(uint16(i) - entry)
	return i - dist, dist
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: lzfast: %s", compress.ErrCorrupt, fmt.Sprintf(format, args...))
}

func readExtLength(src []byte, s int) (ext, n int, err error) {
	for {
		if s+n >= len(src) {
			return 0, 0, corrupt("truncated extended length")
		}
		b := src[s+n]
		n++
		ext += int(b)
		if b < 255 {
			return ext, n, nil
		}
		if ext > 1<<30 {
			return 0, 0, corrupt("extended length overflow")
		}
	}
}
