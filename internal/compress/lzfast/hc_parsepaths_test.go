package lzfast_test

// Inputs built to reach the corners of the hash-chain parse: the offset
// horizon, the 64 K-entry chain ring wrapping in a block longer than it, a
// taken lazy step, both sides of every block length at which the head table
// or the key width changes, and degenerate input whose chains are one long
// run. Each round-trips through the reference decoder and is a seed of
// FuzzFastRoundTrip, which f.Adds what hcParsePathInputs returns.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"adaptio/internal/compress/lzfast"
	"adaptio/internal/corpus"
)

// planted is prose with unique byte strings written over it: prose keeps
// the parse finding matches, so skip acceleration never starts and every
// position joins its chain, and a string of noise has no candidates but its
// own earlier copies.
func planted(n int, seed uint64, at map[int][]byte) []byte {
	b := corpus.Generate(corpus.Moderate, n, seed)
	for pos, s := range at {
		copy(b[pos:], s)
	}
	return b
}

// hcParsePathInputs names every constructed input.
func hcParsePathInputs() map[string][]byte {
	p := noise(64, 21)
	// From 2001 the block repeats 40 bytes it holds at 301; from 2000 it
	// repeats only the 6 at 900. The parse finds the 6 first, and the lazy
	// step must trade them for the 40.
	long := noise(40, 22)
	lazyAt := map[int][]byte{
		300:  slices.Concat([]byte{'#'}, long),
		900:  slices.Concat([]byte{'@'}, long[:5], []byte{'!'}),
		2000: slices.Concat([]byte{'@'}, long),
	}
	in := map[string][]byte{
		// The farthest legal match, and one byte farther. The first copy
		// starts at 1: position 0 is never a candidate.
		"hc-offset-65535": planted(70<<10, 31, map[int][]byte{1: p, 1 + 65535: p}),
		"hc-offset-65536": planted(70<<10, 31, map[int][]byte{1: p, 1 + 65536: p}),
		// Three copies in a block two and a half rings long. The second is
		// 70000 bytes after the first: its chain link does not fit 16 bits
		// and is stored as none, and by then the first copy's ring slots
		// hold younger positions. The third, 200 bytes on, must match the
		// second and stop there.
		"hc-ring-wrap": planted(160<<10, 32, map[int][]byte{100: p, 70100: p, 70300: p}),
		// 4-byte keys (a block under 16 KB) and 5-byte keys.
		"hc-lazy-narrow": planted(4<<10, 33, lazyAt),
		"hc-lazy-wide":   planted(20<<10, 33, lazyAt),
		// One chain holds every position.
		"hc-one-byte": bytes.Repeat([]byte{'z'}, 128<<10),
		"hc-period-3": bytes.Repeat([]byte("abc"), 128<<10/3),
	}
	// Runs cut every 1000 bytes by a byte that differs each time: every
	// earlier run is a candidate good for 999 bytes and no more.
	runs := bytes.Repeat([]byte{'a'}, 128*1000)
	for k := 0; k < 128; k++ {
		runs[k*1000+999] = byte(k)
	}
	in["hc-broken-runs"] = runs
	return in
}

// covering returns the sequence whose match produces byte pos of the
// decoded block; ok is false if pos is a literal.
func covering(seqs []sequence, pos int) (q sequence, start int, ok bool) {
	at := 0
	for _, q := range seqs {
		at += q.litLen
		if pos < at {
			return sequence{}, 0, false
		}
		if pos < at+q.mlen {
			return q, at, true
		}
		at += q.mlen
	}
	return sequence{}, 0, false
}

// longestMatch is the search by exhaustion: the longest match for position
// i among all earlier positions but 0 inside the offset window, the nearest
// of the longest.
func longestMatch(src []byte, i int) (mlen, off int) {
	for cand := i - 1; cand >= max(1, i-65535); cand-- {
		l := 0
		for i+l < len(src) && src[cand+l] == src[i+l] {
			l++
		}
		if l > mlen {
			mlen, off = l, i-cand
		}
	}
	return mlen, off
}

func checkHCRoundTrip(t *testing.T, name string, src []byte) []byte {
	t.Helper()
	comp := lzfast.HC{}.Compress(nil, src)
	out, err := lzfast.DecompressRef(nil, comp, len(src))
	if err != nil {
		t.Fatalf("%s: reference decoder rejects the block: %v", name, err)
	}
	if !bytes.Equal(out, src) {
		t.Fatalf("%s: round trip mismatch", name)
	}
	return comp
}

func TestCompressHCParsePaths(t *testing.T) {
	t.Logf("kernel tier: %s", lzfast.KernelName)
	in := hcParsePathInputs()
	seqs := map[string][]sequence{}
	for name, src := range in {
		seqs[name] = sequences(t, checkHCRoundTrip(t, name, src))
	}

	if q, start, ok := covering(seqs["hc-offset-65535"], 1+65535+32); !ok || q.offset != 65535 || start != 1+65535 || q.mlen < 64 {
		t.Errorf("offset 65535: second copy parsed as %+v at %d (match %v), want all of it at offset 65535", q, start, ok)
	}
	if q, _, ok := covering(seqs["hc-offset-65536"], 1+65536+32); ok {
		t.Errorf("offset 65536: second copy matched by %+v; a distance of 65536 is not encodable", q)
	}
	if q, _, ok := covering(seqs["hc-ring-wrap"], 70100+32); ok {
		t.Errorf("ring wrap: second copy matched by %+v, its only twin is 70000 bytes back", q)
	}
	if q, start, ok := covering(seqs["hc-ring-wrap"], 70300+32); !ok || q.offset != 200 || start != 70300 || q.mlen < 64 {
		t.Errorf("ring wrap: third copy parsed as %+v at %d (match %v), want all of it at offset 200", q, start, ok)
	}
	for _, name := range []string{"hc-lazy-narrow", "hc-lazy-wide"} {
		src := in[name]
		if l, off := longestMatch(src, 2000); l != 6 || off != 1100 {
			t.Fatalf("%s: position 2000 matches %d bytes at offset %d, built for 6 at 1100", name, l, off)
		}
		wantLen, wantOff := longestMatch(src, 2001)
		if wantLen < 40 || wantOff != 1700 {
			t.Fatalf("%s: position 2001 matches %d bytes at offset %d, built for 40 or more at 1700", name, wantLen, wantOff)
		}
		if q, _, ok := covering(seqs[name], 2000); ok {
			t.Errorf("%s: position 2000 is inside match %+v; the lazy step makes it a literal", name, q)
		}
		if q, start, ok := covering(seqs[name], 2001); !ok || start != 2001 || q.mlen != wantLen || q.offset != wantOff {
			t.Errorf("%s: position 2001 parsed as %+v at %d (match %v); a search from scratch finds %d bytes at offset %d",
				name, q, start, ok, wantLen, wantOff)
		}
	}

	// Blocks far beyond the ring, compressible and not.
	for _, kind := range []corpus.Kind{corpus.High, corpus.Moderate, corpus.Low} {
		checkHCRoundTrip(t, kind.String(), corpus.Generate(kind, 1<<20, 4))
	}
	checkHCRoundTrip(t, "noise", noise(1<<20, 13))
}

// TestCompressHCBlockLengths round-trips blocks one byte either side of
// every length at which the parse changes shape: the all-literals gate, each
// doubling of the head table, the switch to 5-byte keys.
func TestCompressHCBlockLengths(t *testing.T) {
	sizes := []int{0, 1, 7, 8, 9, 10, 16<<10 - 1, 16 << 10, 16<<10 + 1}
	for k := 3; k <= 14; k++ {
		sizes = append(sizes, 1<<k, 1<<k+1)
	}
	for _, kind := range []corpus.Kind{corpus.High, corpus.Moderate, corpus.Low} {
		for _, n := range sizes {
			checkHCRoundTrip(t, fmt.Sprintf("%s/%d", kind, n), corpus.Generate(kind, n, 5))
		}
	}
	zeros := make([]byte, 16<<10+1)
	for _, n := range sizes {
		checkHCRoundTrip(t, fmt.Sprintf("zeros/%d", n), zeros[:n])
	}
}

// TestCompressHCDegenerateVisits bounds the candidates examined on input
// whose every position shares one chain. A count, not a clock: it repeats
// exactly, on any host.
func TestCompressHCDegenerateVisits(t *testing.T) {
	in := hcParsePathInputs()
	for _, tc := range []struct {
		name      string
		maxVisits int
		maxBytes  int
	}{
		{"hc-one-byte", 16, 600},
		{"hc-period-3", 16, 600},
		{"hc-broken-runs", 4096, 4096},
	} {
		comp, visits := lzfast.CompressHCCounted(in[tc.name])
		if visits > tc.maxVisits {
			t.Errorf("%s: %d candidates examined, want at most %d", tc.name, visits, tc.maxVisits)
		}
		if len(comp) > tc.maxBytes {
			t.Errorf("%s: compressed to %d bytes, want at most %d", tc.name, len(comp), tc.maxBytes)
		}
		t.Logf("%s: %d candidates, %d bytes", tc.name, visits, len(comp))
	}
	// Prose for scale: the budget per search, not the chain length, is
	// what bounds the work.
	text := corpus.Generate(corpus.Moderate, 128<<10, 1)
	if _, visits := lzfast.CompressHCCounted(text); visits > 3*len(text) {
		t.Errorf("prose: %d candidates for %d bytes, want under 3 a byte", visits, len(text))
	}
}

// TestCompressHCIgnoresPooledState: the chain ring is never cleared, so
// whatever an earlier block left in the pooled tables must be unreachable.
func TestCompressHCIgnoresPooledState(t *testing.T) {
	for _, src := range [][]byte{
		corpus.Generate(corpus.Moderate, 128<<10, 8),
		corpus.Generate(corpus.High, 3000, 8),
		hcParsePathInputs()["hc-ring-wrap"],
	} {
		fresh, _ := lzfast.CompressHCCounted(src)
		for _, dirt := range [][]byte{noise(1<<18, 41), corpus.Generate(corpus.Moderate, 1<<18, 42), bytes.Repeat([]byte("ab"), 1<<17)} {
			lzfast.HC{}.Compress(nil, dirt)
			if got := (lzfast.HC{}).Compress(nil, src); !bytes.Equal(got, fresh) {
				t.Fatalf("%d-byte block compresses differently after a %d-byte one went through the pool", len(src), len(dirt))
			}
		}
	}
}
