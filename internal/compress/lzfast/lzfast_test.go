package lzfast_test

import (
	"bytes"
	"testing"

	"adaptio/internal/compress"
	"adaptio/internal/compress/codectest"
	"adaptio/internal/compress/lzfast"
	"adaptio/internal/corpus"
)

func TestFastConformance(t *testing.T) { codectest.All(t, lzfast.Fast{}) }

func TestHCConformance(t *testing.T) { codectest.All(t, lzfast.HC{}) }

func TestHCDepthConfigurable(t *testing.T) {
	src := corpus.Generate(corpus.Moderate, 64<<10, 3)
	shallow := lzfast.HC{Depth: 1}.Compress(nil, src)
	deep := lzfast.HC{Depth: 256}.Compress(nil, src)
	if len(deep) > len(shallow) {
		t.Fatalf("deeper search produced worse ratio: depth1=%d depth256=%d", len(shallow), len(deep))
	}
	out, err := lzfast.HC{}.Decompress(nil, deep, len(src))
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("deep round trip failed: %v", err)
	}
}

func TestHCBeatsFastOnCompressibleData(t *testing.T) {
	for _, kind := range []corpus.Kind{corpus.High, corpus.Moderate} {
		src := corpus.GenerateFile(kind, 1)[:128<<10]
		fast := lzfast.Fast{}.Compress(nil, src)
		hc := lzfast.HC{}.Compress(nil, src)
		if len(hc) >= len(fast) {
			t.Errorf("%s: HC (%d) should compress better than Fast (%d)", kind, len(hc), len(fast))
		}
	}
}

func TestWireIDs(t *testing.T) {
	if (lzfast.Fast{}).ID() != compress.IDLZFast {
		t.Fatal("Fast wire id changed")
	}
	if (lzfast.HC{}).ID() != compress.IDLZFastH {
		t.Fatal("HC wire id changed")
	}
}

func TestIncompressibleExpansionBounded(t *testing.T) {
	src := corpus.Generate(corpus.Low, 128<<10, 9)
	comp := lzfast.Fast{}.Compress(nil, src)
	// Worst case is ~1 token byte per 255-byte extension plus constant
	// slack; anything beyond 1% expansion indicates a framing bug.
	if len(comp) > len(src)+len(src)/100+16 {
		t.Fatalf("excessive expansion: %d -> %d", len(src), len(comp))
	}
}

func TestLongRunsCompressTightly(t *testing.T) {
	src := make([]byte, 1<<20) // 1 MB of zeros
	comp := lzfast.Fast{}.Compress(nil, src)
	if len(comp) > 8<<10 {
		t.Fatalf("1 MB of zeros compressed to only %d bytes", len(comp))
	}
	out, err := lzfast.Fast{}.Decompress(nil, comp, len(src))
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("zeros round trip failed: %v", err)
	}
}

func BenchmarkFastCompressModerate(b *testing.B) {
	benchCompress(b, lzfast.Fast{}, corpus.Moderate)
}

func BenchmarkFastCompressHigh(b *testing.B) {
	benchCompress(b, lzfast.Fast{}, corpus.High)
}

func BenchmarkFastCompressLow(b *testing.B) {
	benchCompress(b, lzfast.Fast{}, corpus.Low)
}

func BenchmarkHCCompressModerate(b *testing.B) {
	benchCompress(b, lzfast.HC{}, corpus.Moderate)
}

func BenchmarkFastDecompressModerate(b *testing.B) {
	benchDecompress(b, lzfast.Fast{}, corpus.Moderate)
}

func benchCompress(b *testing.B, c compress.Codec, kind corpus.Kind) {
	src := corpus.Generate(kind, 128<<10, 1)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	dst := make([]byte, 0, 2*len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.Compress(dst[:0], src)
	}
	b.ReportMetric(float64(len(dst))/float64(len(src)), "ratio")
}

func benchDecompress(b *testing.B, c compress.Codec, kind corpus.Kind) {
	src := corpus.Generate(kind, 128<<10, 1)
	comp := c.Compress(nil, src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	dst := make([]byte, 0, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = c.Decompress(dst[:0], comp, len(src))
		if err != nil {
			b.Fatal(err)
		}
	}
}
