package lzfast_test

import (
	"bytes"
	"testing"

	"adaptio/internal/compress/lzfast"
	"adaptio/internal/corpus"
)

func FuzzFastRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("abcabcabcabc"))
	f.Add(corpus.Generate(corpus.High, 4096, 1))
	f.Add(corpus.Generate(corpus.Low, 4096, 1))
	f.Add(bytes.Repeat([]byte{0}, 70000))
	for _, src := range hcParsePathInputs() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, c := range []interface {
			Compress(dst, src []byte) []byte
			Decompress(dst, src []byte, n int) ([]byte, error)
		}{lzfast.Fast{}, lzfast.HC{}, lzfast.HC{Depth: 1}} {
			comp := c.Compress(nil, src)
			out, err := c.Decompress(nil, comp, len(src))
			if err != nil {
				t.Fatalf("decompress own output: %v", err)
			}
			if !bytes.Equal(out, src) {
				t.Fatal("round trip mismatch")
			}
		}
	})
}

// FuzzDecompressFast differentially fuzzes the production fast-path decoder
// against the reference decoder: any input where they disagree on
// acceptance, or accept with different output, is a bug. The seeds (also
// committed under testdata/fuzz/FuzzDecompressFast) straddle the
// fast/careful path boundary: sequences ending exactly at the wild-copy
// safety margin, max-extension length runs, and offset==1 RLE.
func FuzzDecompressFast(f *testing.F) {
	// A match ending exactly 32 bytes (one wild pair) before the block
	// end, followed by final literals filling the margin — and the same
	// block with the boundary shifted by one either way.
	pattern := bytes.Repeat([]byte("abcdefgh"), 16)
	tail := corpus.Generate(corpus.Low, 33, 9)
	for i := 31; i <= 33; i++ {
		src := append(append([]byte(nil), pattern...), tail[:i]...)
		f.Add(lzfast.Fast{}.Compress(nil, src), len(src))
	}
	// offset==1 RLE with a maximal extension run.
	zeros := make([]byte, 70000)
	f.Add(lzfast.Fast{}.Compress(nil, zeros), len(zeros))
	// One giant literal run (incompressible input): extension bytes of
	// 255 on the literal side.
	noise := corpus.Generate(corpus.Low, 4096, 11)
	f.Add(lzfast.Fast{}.Compress(nil, noise), len(noise))
	// Truncated and size-skewed variants so error paths seed too.
	rle := lzfast.Fast{}.Compress(nil, zeros)
	f.Add(rle[:len(rle)-3], len(zeros))
	f.Add(rle, len(zeros)-1)
	f.Fuzz(func(t *testing.T, data []byte, size int) {
		if size < 0 || size > 1<<20 {
			size %= 1 << 20
			if size < 0 {
				size = -size
			}
		}
		refOut, refErr := lzfast.DecompressRef(nil, data, size)
		fastOut, fastErr := lzfast.DecompressFast(nil, data, size)
		if (refErr == nil) != (fastErr == nil) {
			t.Fatalf("acceptance diverges: ref err=%v, fast err=%v", refErr, fastErr)
		}
		if refErr == nil && !bytes.Equal(refOut, fastOut) {
			t.Fatal("decoded output diverges")
		}
	})
}

// FuzzCompressFastUnsafe differentially fuzzes the production fast-mode
// encoder against the reference encoder: on every input the two must
// produce byte-identical compressed output, and the reference decoder must
// round-trip it. Under the default build this pins the unsafe kernel tier
// to the portable reference primitives; under -tags purego (the nightly
// fuzz matrix runs both) it pins the frontier-based emit machinery alone.
// The committed seeds (testdata/fuzz/FuzzCompressFastUnsafe) straddle the
// encoder's boundaries: the 8-byte hash-load scan limit, the 16-byte
// wild-copy margin, the tiny-overlap decline window, the 16-bit offset
// horizon; parsePathInputs adds 16-bit table entries aliasing past 64 KB,
// each way backward extension stops, and a match ending inside a run.
func FuzzCompressFastUnsafe(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("12345678"))  // exactly one scan position
	f.Add([]byte("123456789")) // one byte past it
	f.Add(bytes.Repeat([]byte("ab"), 40))
	f.Add(corpus.Generate(corpus.Moderate, 4096, 2))
	for _, src := range parsePathInputs() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		ref := lzfast.CompressFastRef(nil, src)
		fast := lzfast.CompressFast(nil, src)
		if !bytes.Equal(ref, fast) {
			t.Fatalf("encoder outputs diverge (%s tier): ref %d bytes, fast %d bytes",
				lzfast.KernelName, len(ref), len(fast))
		}
		out, err := lzfast.DecompressRef(nil, fast, len(src))
		if err != nil {
			t.Fatalf("reference decoder rejects encoder output: %v", err)
		}
		if !bytes.Equal(out, src) {
			t.Fatal("round trip mismatch")
		}
	})
}

func FuzzFastDecompressArbitrary(f *testing.F) {
	f.Add([]byte{0x00}, 10)
	f.Add([]byte{0xF0, 1, 2, 3}, 4)
	f.Add(lzfast.Fast{}.Compress(nil, []byte("seed data for the fuzzer")), 24)
	f.Fuzz(func(t *testing.T, data []byte, size int) {
		if size < 0 || size > 1<<20 {
			size %= 1 << 20
			if size < 0 {
				size = -size
			}
		}
		// Must never panic; errors and garbage output are fine (the
		// stream layer's CRC rejects garbage).
		_, _ = lzfast.Fast{}.Decompress(nil, data, size)
	})
}
