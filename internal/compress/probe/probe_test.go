package probe_test

import (
	"testing"

	"adaptio/internal/compress/lzfast"
	"adaptio/internal/compress/lzheavy"
	"adaptio/internal/compress/probe"
	"adaptio/internal/corpus"
)

const blockLen = 128 << 10

// xorshift mirrors the corpus generator's RNG so the "uniform random"
// class is deterministic without importing math/rand.
func uniformRandom(n int, seed uint64) []byte {
	state := seed ^ 0x9E3779B97F4A7C15
	out := make([]byte, n)
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		out[i] = byte(state >> 32)
	}
	return out
}

// TestProbeDecisions is the calibration table: every corpus kind must stay
// on the compression path — High and Moderate on the entropy gate, Low,
// whose sampled entropy (~7.9 bits/byte) is indistinguishable from random,
// on the marker-stuffing repeats the match probe must find — while uniform
// random and already-compressed payloads must be skipped, and nothing
// shorter than MinLen is judged at all.
func TestProbeDecisions(t *testing.T) {
	heavyCompressed := lzheavy.Codec{}.Compress(nil, corpus.Generate(corpus.Moderate, blockLen, 7))
	if len(heavyCompressed) < probe.MinLen {
		t.Fatalf("setup: lzheavy output too short to probe: %d bytes", len(heavyCompressed))
	}

	cases := []struct {
		name     string
		data     []byte
		hopeless bool
	}{
		{"corpus-high", corpus.Generate(corpus.High, blockLen, 1), false},
		{"corpus-moderate", corpus.Generate(corpus.Moderate, blockLen, 2), false},
		{"corpus-low", corpus.Generate(corpus.Low, blockLen, 3), false},
		{"uniform-random", uniformRandom(blockLen, 4), true},
		{"lzheavy-output", heavyCompressed, true},
		{"zeros", make([]byte, blockLen), false},
		{"short-random", uniformRandom(probe.MinLen-1, 5), false}, // below MinLen: always kept
		{"min-len-random", uniformRandom(probe.MinLen, 5), true},  // the sample tiles the block
		{"empty", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := probe.Hopeless(tc.data); got != tc.hopeless {
				t.Errorf("Hopeless(%s) = %v, want %v", tc.name, got, tc.hopeless)
			}
			if got := probe.Default().Hopeless(tc.data); got != tc.hopeless {
				t.Errorf("Default().Hopeless(%s) = %v, want %v: the method form is the function", tc.name, got, tc.hopeless)
			}
		})
	}
}

// TestProbeDecisionsAcrossSeeds guards the calibration margins: the
// decisions above must hold for every seed, not just the ones in the
// table.
func TestProbeDecisionsAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		for _, kind := range corpus.Kinds() {
			if probe.Hopeless(corpus.Generate(kind, blockLen, seed)) {
				t.Errorf("seed %d: corpus %v judged hopeless; must stay on the compression path", seed, kind)
			}
		}
		if !probe.Hopeless(uniformRandom(blockLen, seed)) {
			t.Errorf("seed %d: uniform random judged compressible", seed)
		}
	}
}

// TestSkippedBlocksAreTrulyIncompressible cross-checks the probe against
// the real codecs: anything the probe skips must be data lzfast could
// not have shrunk by more than a few percent anyway, so no meaningful
// ratio is ever left on the table.
func TestSkippedBlocksAreTrulyIncompressible(t *testing.T) {
	fast := lzfast.Fast{}
	for seed := uint64(1); seed <= 8; seed++ {
		data := uniformRandom(blockLen, seed)
		if !probe.Hopeless(data) {
			continue
		}
		comp := fast.Compress(nil, data)
		if ratio := float64(len(comp)) / float64(len(data)); ratio < 0.98 {
			t.Errorf("seed %d: probe skipped a block lzfast compresses to %.3f", seed, ratio)
		}
	}
}

func BenchmarkProbe(b *testing.B) {
	for _, kind := range corpus.Kinds() {
		data := corpus.Generate(kind, blockLen, 1)
		b.Run(kind.String(), func(b *testing.B) {
			b.SetBytes(blockLen)
			for i := 0; i < b.N; i++ {
				probe.Hopeless(data)
			}
		})
	}
	rnd := uniformRandom(blockLen, 1)
	b.Run("random", func(b *testing.B) {
		b.SetBytes(blockLen)
		for i := 0; i < b.N; i++ {
			probe.Hopeless(rnd)
		}
	})
}
