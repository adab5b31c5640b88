package lzfast_test

// Inputs built to reach the corners of the fast parse that corpus data
// only meets by accident: 16-bit table entries aliasing in blocks longer
// than 64 KB, the offset horizon, and every way backward extension can
// stop. Each is run through the encoder pair (byte-identical output,
// reference-decoder round trip) and is a seed of FuzzCompressFastUnsafe,
// which f.Adds what parsePathInputs returns.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adaptio/internal/compress/lzfast"
	"adaptio/internal/corpus"
)

// noise returns n seeded random bytes: no accidental 4-byte repeats at the
// sizes used here.
func noise(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// sequence is one decoded token sequence of a compressed block.
type sequence struct{ litLen, offset, mlen int }

// sequences walks a well-formed block; the final literals-only sequence has
// offset 0.
func sequences(t *testing.T, comp []byte) []sequence {
	t.Helper()
	ext := func(s int) (int, int) {
		n := 0
		for {
			b := comp[s]
			s++
			n += int(b)
			if b < 255 {
				return n, s
			}
		}
	}
	var out []sequence
	for s := 0; s < len(comp); {
		token := comp[s]
		s++
		q := sequence{litLen: int(token >> 4)}
		if q.litLen == 15 {
			var n int
			n, s = ext(s)
			q.litLen += n
		}
		s += q.litLen
		if s < len(comp) {
			q.offset = int(binary.LittleEndian.Uint16(comp[s:]))
			s += 2
			q.mlen = int(token & 15)
			if q.mlen == 15 {
				var n int
				n, s = ext(s)
				q.mlen += n
			}
			q.mlen += 4
		}
		out = append(out, q)
	}
	return out
}

// aliasedShortMatch builds a block in which a probe resolves a stale table
// entry to a position that was never stored there, dist bytes back, where
// exactly minMatch bytes match and the byte before them matches too.
//
//	8 noise · abcdY · 8 noise · 64 KB of z · noise · q abcd X .. q abcd Y · noise
//
// The table hashes five bytes and the fifth selects the slot's top bits, so
// abcdX and abcdY never share a slot: the probe at the last abcd finds what
// the first abcdY wrote 65536+dist bytes earlier, which reads as distance
// dist — the abcd behind abcdX. The z run is one match, so few probes fall
// between the two and the entry survives. The noise before the pattern takes
// the miss counter past 32: the parse steps by 2 there and probes either the
// last abcd (phase 0) or the q before it (phase 1, where q·abcd matches the
// first q·abcd, 5 bytes, the ordinary way).
func aliasedShortMatch(dist, phase int) []byte {
	gap := noise(dist-6, 14) // bytes between X and the second q
	head := slices.Concat(noise(8, 15), []byte("abcdY"), noise(8, 16))
	lead := noise(40+phase, 5)
	// The last abcd sits at 8 + 65536 + dist.
	run := 8 + 65536 + dist - (len(head) + len(lead) + 6 + len(gap) + 1)
	return slices.Concat(head, bytes.Repeat([]byte{'z'}, run), lead,
		[]byte("qabcdX"), gap, []byte("qabcdY"), noise(24, 6))
}

// parsePathInputs names every constructed input.
func parsePathInputs() map[string][]byte {
	text := corpus.Generate(corpus.Moderate, 1<<16, 11)
	p := noise(64, 1)
	w := noise(32, 2)
	in := map[string][]byte{
		// The same 64 KB twice: every probe in the second copy reads the
		// entry its twin wrote, at 16-bit distance 0. It names the probe's
		// own position and must be rejected; a match 65536 back cannot be
		// encoded.
		"period-65536": slices.Concat(text, text, text[:100]),
		// One byte less and the twin is the farthest legal match.
		"offset-65535": slices.Concat(text[:65535], text[:65535], text[:100]),
		// P·r·(tail of P)·W·r·P·W: the last W matches the earlier one, whose
		// preceding bytes also agree, but those bytes were emitted by the
		// match on P: backward extension stops at anchor.
		"backext-anchor": slices.Concat(p, noise(100, 7), p[32:], w, noise(100, 8), p, w, noise(16, 9)),
		// A cleared entry reads as position 0: the probe at the second abcd
		// verifies against the first, 4 bytes at distance 5, and the
		// tiny-overlap rule declines it.
		"tiny-cleared-entry": slices.Concat([]byte("abcdXabcdY"), noise(24, 17)),
		// P·z×12, then P·z×60: the match on P and twelve z ends inside the
		// longer run. Seeding its last two bytes there would hand the next
		// probe an overlapping match at distance 2.
		"run-end": slices.Concat(p, bytes.Repeat([]byte{'z'}, 12), noise(50, 18),
			p, bytes.Repeat([]byte{'z'}, 60), noise(16, 19)),
	}
	// The same decline with bytes to extend backward over, and its control
	// at distance tinyOverlapOffset, where the match is taken.
	for _, dist := range []int{6, 8} {
		for phase := 0; phase < 2; phase++ {
			in[fmt.Sprintf("alias-dist%d-phase%d", dist, phase)] = aliasedShortMatch(dist, phase)
		}
	}
	// P at position 0, then P again behind enough noise that the parse is
	// stepping by 3 when it gets there: wherever the first probe lands in the
	// second P, backward extension recovers its start, and stops at
	// position 0 of the first.
	for pad := 0; pad < 3; pad++ {
		in[fmt.Sprintf("backext-pos0-%d", pad)] = slices.Concat(p, noise(400+pad, 10), p, noise(16, 12))
	}
	return in
}

func TestCompressFastDifferentialParsePaths(t *testing.T) {
	t.Logf("kernel tier: %s", lzfast.KernelName)
	in := parsePathInputs()
	for _, src := range in {
		checkEncodersAgree(t, src)
	}
	// Blocks far beyond the 16-bit entry range, compressible and not: in
	// noise every entry older than 64 KB aliases to a younger position that
	// was never stored, and only the 4-byte verify tells.
	for _, kind := range []corpus.Kind{corpus.High, corpus.Moderate, corpus.Low} {
		checkEncodersAgree(t, corpus.Generate(kind, 1<<20, 4))
	}
	checkEncodersAgree(t, noise(1<<20, 13))

	find := func(name string, want func(sequence) bool) (n int) {
		for _, q := range sequences(t, lzfast.CompressFast(nil, in[name])) {
			if want(q) {
				n++
			}
		}
		return n
	}
	if n := find("period-65536", func(q sequence) bool { return q.mlen >= 1024 }); n != 0 {
		t.Errorf("period 65536: %d long matches; a distance of 65536 is not encodable", n)
	}
	if n := find("offset-65535", func(q sequence) bool { return q.offset == 65535 && q.mlen >= 1024 }); n == 0 {
		t.Error("period 65535: the second copy was not matched at offset 65535")
	}
	if n := find("backext-anchor", func(q sequence) bool { return q.litLen == 0 && q.mlen == 32 }); n != 1 {
		t.Errorf("backward extension at anchor: %d matches of exactly W right behind another match, want 1", n)
	}
	for pad := 0; pad < 3; pad++ {
		name := fmt.Sprintf("backext-pos0-%d", pad)
		if n := find(name, func(q sequence) bool { return q.offset == 464+pad && q.mlen == 64 }); n != 1 {
			t.Errorf("%s: %d matches covering all of the second P, want 1", name, n)
		}
	}
	if n := find("run-end", func(q sequence) bool { return q.offset == 126 && q.mlen == 76 }); n != 1 {
		t.Errorf("run end: %d matches on P and its twelve z, want 1", n)
	}
	// (The first, twelve-byte run is itself parsed at the distance the scan
	// was stepping by; only the rest of the second run is long.)
	if n := find("run-end", func(q sequence) bool { return q.offset == 2 && q.mlen > 12 }); n != 0 {
		t.Error("run end: the rest of the run is a match at distance 2; the end seed must stay out of a run")
	}
	if n := find("tiny-cleared-entry", func(q sequence) bool { return q.offset != 0 }); n != 0 {
		t.Errorf("cleared entry: %d matches, want the 4-byte match at distance 5 declined", n)
	}
	// At distance 8 the aliased candidate is taken in either phase: 4 bytes
	// forward and the q backward from the last abcd, or q·abcd forward from
	// the q. At distance 6 the rule declines the 4 forward bytes, and the q
	// behind them must not rescue the match.
	short := func(dist int) func(sequence) bool {
		return func(q sequence) bool { return q.offset == dist && q.mlen == 5 }
	}
	for _, tc := range []struct {
		name string
		dist int
		want int
	}{
		{"alias-dist8-phase0", 8, 1},
		{"alias-dist8-phase1", 8, 1},
		{"alias-dist6-phase0", 6, 0},
		{"alias-dist6-phase1", 6, 1},
	} {
		if n := find(tc.name, short(tc.dist)); n != tc.want {
			t.Errorf("%s: %d five-byte matches at distance %d, want %d", tc.name, n, tc.dist, tc.want)
		}
	}
}
