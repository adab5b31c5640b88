package lzheavy_test

import (
	"bytes"
	"testing"

	"adaptio/internal/compress"
	"adaptio/internal/compress/codectest"
	"adaptio/internal/compress/lzfast"
	"adaptio/internal/compress/lzheavy"
	"adaptio/internal/corpus"
)

func TestConformance(t *testing.T) { codectest.All(t, lzheavy.Codec{}) }

func TestWireID(t *testing.T) {
	if (lzheavy.Codec{}).ID() != compress.IDLZHeavy {
		t.Fatal("lzheavy wire id changed")
	}
}

func TestBeatsLZFastOnCompressibleData(t *testing.T) {
	// The HEAVY level must achieve a strictly better ratio than the fast
	// levels on compressible data — that ordering is the premise of the
	// paper's level ladder (Section III-A).
	for _, kind := range []corpus.Kind{corpus.High, corpus.Moderate} {
		src := corpus.GenerateFile(kind, 1)[:128<<10]
		heavy := lzheavy.Codec{}.Compress(nil, src)
		fast := lzfast.Fast{}.Compress(nil, src)
		hc := lzfast.HC{}.Compress(nil, src)
		if len(heavy) >= len(fast) {
			t.Errorf("%s: heavy (%d) not better than fast (%d)", kind, len(heavy), len(fast))
		}
		if len(heavy) >= len(hc) {
			t.Errorf("%s: heavy (%d) not better than hc (%d)", kind, len(heavy), len(hc))
		}
	}
}

func TestDepthConfigurable(t *testing.T) {
	src := corpus.Generate(corpus.Moderate, 32<<10, 3)
	shallow := lzheavy.Codec{Depth: 1}.Compress(nil, src)
	deep := lzheavy.Codec{Depth: 512}.Compress(nil, src)
	if len(deep) > len(shallow) {
		t.Fatalf("deeper search worse: depth1=%d depth512=%d", len(shallow), len(deep))
	}
	out, err := lzheavy.Codec{}.Decompress(nil, deep, len(src))
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("round trip failed: %v", err)
	}
}

// TestMultipleRepDistancesExploited interleaves two periodic streams so the
// encoder must alternate between two distances; the rep1 slot makes that
// nearly free, so the output must stay tiny.
func TestMultipleRepDistancesExploited(t *testing.T) {
	a := []byte("AAAABBBBCCCCDDDD")                 // period 16
	b := []byte("0123456789abcdefghijklmnopqrstuv") // period 32
	var src []byte
	for i := 0; i < 1000; i++ {
		src = append(src, a...)
		src = append(src, b...)
	}
	comp := lzheavy.Codec{}.Compress(nil, src)
	if len(comp) > len(src)/60 {
		t.Fatalf("interleaved periodic data compressed to %d of %d bytes; rep queue not effective",
			len(comp), len(src))
	}
	out, err := lzheavy.Codec{}.Decompress(nil, comp, len(src))
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("round trip failed: %v", err)
	}
}

// TestShortRepPath pins the single-byte rep0 path: runs of one repeated
// byte interrupted by single different bytes.
func TestShortRepPath(t *testing.T) {
	src := bytes.Repeat([]byte("xxxxxxxy"), 2000)
	comp := lzheavy.Codec{}.Compress(nil, src)
	out, err := lzheavy.Codec{}.Decompress(nil, comp, len(src))
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("short-rep round trip failed: %v", err)
	}
	if len(comp) > len(src)/30 {
		t.Fatalf("near-constant data compressed to only %d of %d", len(comp), len(src))
	}
}

func TestRepDistanceExploited(t *testing.T) {
	// Data with a fixed stride benefits enormously from the
	// repeat-distance path; this pins that the mechanism works.
	unit := []byte("0123456789abcdef")
	src := bytes.Repeat(unit, 4096) // 64 KB, period 16
	comp := lzheavy.Codec{}.Compress(nil, src)
	if len(comp) > 2048 {
		t.Fatalf("periodic data compressed to only %d bytes; rep path likely broken", len(comp))
	}
	out, err := lzheavy.Codec{}.Decompress(nil, comp, len(src))
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestEmptyBlock(t *testing.T) {
	comp := lzheavy.Codec{}.Compress(nil, nil)
	out, err := lzheavy.Codec{}.Decompress(nil, comp, 0)
	if err != nil {
		t.Fatalf("empty round trip: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("expected empty output, got %d bytes", len(out))
	}
}

func BenchmarkCompressModerate(b *testing.B) {
	benchCompress(b, corpus.Moderate)
}

func BenchmarkCompressHigh(b *testing.B) {
	benchCompress(b, corpus.High)
}

func BenchmarkCompressLow(b *testing.B) {
	benchCompress(b, corpus.Low)
}

func BenchmarkDecompressModerate(b *testing.B) {
	src := corpus.Generate(corpus.Moderate, 128<<10, 1)
	comp := lzheavy.Codec{}.Compress(nil, src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	var dst []byte
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = lzheavy.Codec{}.Decompress(dst[:0], comp, len(src))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchCompress(b *testing.B, kind corpus.Kind) {
	src := corpus.Generate(kind, 128<<10, 1)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst = lzheavy.Codec{}.Compress(dst[:0], src)
	}
	b.ReportMetric(float64(len(dst))/float64(len(src)), "ratio")
}
