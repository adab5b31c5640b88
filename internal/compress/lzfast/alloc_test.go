package lzfast_test

import (
	"testing"

	"adaptio/internal/compress/lzfast"
	"adaptio/internal/corpus"
)

// TestDecompressPresizedNoAlloc pins the satellite guarantee that a dst
// with sufficient capacity is decoded into in place: the grown path at the
// top of decompressBlock must not trigger, and no other allocation may
// appear on the decode path.
func TestDecompressPresizedNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	raw := corpus.Generate(corpus.Moderate, 128<<10, 1)
	comp := lzfast.Fast{}.Compress(nil, raw)
	dst := make([]byte, 0, len(raw))
	avg := testing.AllocsPerRun(100, func() {
		out, err := lzfast.Fast{}.Decompress(dst, comp, len(raw))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(raw) {
			t.Fatalf("decoded %d bytes, want %d", len(out), len(raw))
		}
	})
	if avg != 0 {
		t.Fatalf("presized Decompress allocates %.1f times per run, want 0", avg)
	}
}

// TestCompressHCPresizedNoAlloc pins the same for the hash-chain encoder:
// its tables come from the pool and its output goes into dst, so a call
// with room in dst allocates nothing.
func TestCompressHCPresizedNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	raw := corpus.Generate(corpus.Moderate, 128<<10, 1)
	dst := make([]byte, 0, 2*len(raw))
	lzfast.HC{}.Compress(dst, raw) // the pool's first Get allocates the tables
	avg := testing.AllocsPerRun(20, func() {
		if out := (lzfast.HC{}).Compress(dst, raw); len(out) == 0 {
			t.Fatal("empty output")
		}
	})
	if avg != 0 {
		t.Fatalf("presized HC Compress allocates %.1f times per run, want 0", avg)
	}
}
