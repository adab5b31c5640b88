package lzfast_test

// Differential and golden tests pinning the production fast-mode encoder
// (encode_fast.go) and the kernel primitives (kernel_unsafe.go /
// kernel_portable.go) to their reference implementations. Together with
// FuzzCompressFastUnsafe these enforce the kernel tier's core contract:
// byte-identical compressed output on every input, on every build.
//
// The golden digests at the bottom are the strongest cross-build check: the
// same constants must hold under the default build and under -tags purego
// (make test-kernels runs both), so the unsafe tier cannot drift from the
// portable tier without a test failure.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"testing"

	"adaptio/internal/compress/lzfast"
	"adaptio/internal/corpus"
)

// diffSizes probes both sides of every boundary the encoder cares about:
// the short-input gate (minMatch+1), the 8-byte hash-load scan limit, the
// 16-byte wild-copy margin, the skip-acceleration ramp, and block sizes
// around the stream's 128 KB default.
var diffSizes = []int{
	0, 1, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 23, 31, 32, 33, 63, 64, 65,
	127, 255, 256, 1 << 10, 4096, 65535, 65536, 65537, 128 << 10, (128 << 10) + 17,
}

func TestCompressFastDifferential(t *testing.T) {
	t.Logf("kernel tier: %s", lzfast.KernelName)
	kinds := []corpus.Kind{corpus.High, corpus.Moderate, corpus.Low}
	for _, kind := range kinds {
		for _, n := range diffSizes {
			for seed := uint64(1); seed <= 3; seed++ {
				src := corpus.Generate(kind, n, seed)
				checkEncodersAgree(t, src)
			}
		}
	}
}

// TestCompressFastDifferentialAdversarial feeds the encoder pair inputs
// that corpus generators do not produce: uniform random bytes, all-zero
// runs, an alternating pattern with period below tinyOverlapOffset, and
// random splices of the above (which straddle compressible and
// incompressible regions mid-block).
func TestCompressFastDifferentialAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	random := make([]byte, 1<<16)
	rng.Read(random)
	zeros := make([]byte, 1<<16)
	period3 := make([]byte, 1<<12)
	for i := range period3 {
		period3[i] = byte(i % 3)
	}
	for _, src := range [][]byte{random, zeros, period3} {
		for _, n := range diffSizes {
			if n > len(src) {
				continue
			}
			checkEncodersAgree(t, src[:n])
		}
	}
	for trial := 0; trial < 50; trial++ {
		var spliced []byte
		for len(spliced) < 1<<14 {
			pick := [][]byte{random, zeros, period3}[rng.Intn(3)]
			off := rng.Intn(len(pick) - 64)
			end := min(off+64+rng.Intn(512), len(pick))
			spliced = append(spliced, pick[off:end]...)
		}
		checkEncodersAgree(t, spliced)
	}
}

// TestCompressFastDifferentialAppend verifies the frontier-based encoder
// respects append semantics (non-empty dst with spare capacity) exactly as
// the reference does.
func TestCompressFastDifferentialAppend(t *testing.T) {
	src := corpus.Generate(corpus.Moderate, 1<<12, 5)
	prefix := []byte("prefix-already-present")
	ref := lzfast.CompressFastRef(append([]byte(nil), prefix...), src)
	// Spare capacity beyond the prefix must not leak into the output.
	dst := make([]byte, len(prefix), len(prefix)+4*len(src))
	copy(dst, prefix)
	fast := lzfast.CompressFast(dst, src)
	if !bytes.Equal(ref, fast) {
		t.Fatal("append-mode encoder outputs diverge")
	}
	if !bytes.HasPrefix(fast, prefix) {
		t.Fatal("append-mode output does not preserve prefix")
	}
}

// checkEncodersAgree requires byte-identical output from the production and
// reference encoders, and a clean reference-decoder round trip.
func checkEncodersAgree(t *testing.T, src []byte) {
	t.Helper()
	ref := lzfast.CompressFastRef(nil, src)
	fast := lzfast.CompressFast(nil, src)
	if !bytes.Equal(ref, fast) {
		i := 0
		for i < len(ref) && i < len(fast) && ref[i] == fast[i] {
			i++
		}
		t.Fatalf("encoder outputs diverge for %d-byte input: ref %d bytes, fast %d bytes, first difference at %d",
			len(src), len(ref), len(fast), i)
	}
	out, err := lzfast.DecompressRef(nil, fast, len(src))
	if err != nil {
		t.Fatalf("reference decoder rejects fast encoder output for %d-byte input: %v", len(src), err)
	}
	if !bytes.Equal(out, src) {
		t.Fatalf("round trip mismatch for %d-byte input", len(src))
	}
}

// TestMatchLenKernelDifferential pins the kernel match-extension primitive
// to the reference byte-counting loop on random inputs, with positions
// placed to straddle the 8-byte-window boundaries and the slice end.
func TestMatchLenKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 4096)
	rng.Read(src)
	// Plant long equal runs so extensions cross several 8-byte windows.
	copy(src[1024:], src[0:512])
	copy(src[2048:], src[0:1024])
	for trial := 0; trial < 20000; trial++ {
		a := rng.Intn(len(src) - 1)
		b := a + 1 + rng.Intn(len(src)-a-1)
		got := lzfast.MatchLenKernel(src, a, b)
		want := lzfast.MatchLenRef(src, a, b)
		if got != want {
			t.Fatalf("matchLen(%d, %d) = %d, reference says %d", a, b, got, want)
		}
	}
	// Exhaustive tail positions: every (a, b) in the last 24 bytes.
	for b := len(src) - 24; b < len(src); b++ {
		for a := b - 16; a < b; a++ {
			if lzfast.MatchLenKernel(src, a, b) != lzfast.MatchLenRef(src, a, b) {
				t.Fatalf("matchLen tail divergence at a=%d b=%d", a, b)
			}
		}
	}
}

// goldenDigests are SHA-256 hex digests of each codec's compressed output
// on fixed corpus blocks. They pin the wire bytes across kernel tiers and
// over time: run under both the default build and -tags purego, the same
// constants prove the two tiers serialize identically, and any future
// change to the parse (which changes compressed bytes, a stream-visible
// event) has to update them consciously.
var goldenDigests = []struct {
	name   string
	kind   corpus.Kind
	size   int
	codec  interface{ Compress(dst, src []byte) []byte }
	digest string
}{
	{"fast/high/64K", corpus.High, 64 << 10, lzfast.Fast{}, "cdef8d6fe7f115112d0b2a6b141f543c557b953294e94ffcab9c331802adf001"},
	{"fast/moderate/64K", corpus.Moderate, 64 << 10, lzfast.Fast{}, "aea5ae5a039e47e7d9bed4f8ee6b4ededc224c00b074e4212414f4e2a291856f"},
	{"fast/low/64K", corpus.Low, 64 << 10, lzfast.Fast{}, "26fb29f3e2d51dad78a28fe689a65e07047cbae9851488ceacec72977554d5bd"},
	{"hc/high/64K", corpus.High, 64 << 10, lzfast.HC{}, "79933e117844db890f4cfc00257702e3e972362911b6f002da57965d5999c58a"},
	{"hc/moderate/64K", corpus.Moderate, 64 << 10, lzfast.HC{}, "f5c40d4516562f888cba9ede9e3bb425a79c2f5cf6b1186d325f5e400107e774"},
	{"hc/low/64K", corpus.Low, 64 << 10, lzfast.HC{}, "1aaecb70a67c26b8106d9de661e4aeacabf1319685571b8c544c102c8caccfa0"},
	// Under 16 KB the chains are keyed on 4 bytes and the head table is
	// sized to the block.
	{"hc/moderate/4K", corpus.Moderate, 4 << 10, lzfast.HC{}, "5e995dbf672306b5f9be7c658db53a6c806e7e4f3623775de51d7ad6434995d7"},
}

func TestGoldenDigests(t *testing.T) {
	for _, g := range goldenDigests {
		src := corpus.Generate(g.kind, g.size, 1)
		sum := sha256.Sum256(g.codec.Compress(nil, src))
		if got := hex.EncodeToString(sum[:]); got != g.digest {
			t.Errorf("%s (%s tier): digest %s, want %s", g.name, lzfast.KernelName, got, g.digest)
		}
	}
}

// TestParentEncoderBlockStillDecodes pins the frozen token format from both
// sides of this encoder's last parse change. testdata/light_block_parent.bin
// is a LIGHT frame's payload as the encoder before the 16-bit table wrote it
// (6 KB MODERATE + 2 KB HIGH, seed 19): a peer still running that encoder
// sends such blocks and they must decode, with either decoder. And what
// today's encoder makes of the same bytes is a different parse in the same
// format: the untouched reference decoder reads it.
func TestParentEncoderBlockStillDecodes(t *testing.T) {
	src := append(corpus.Generate(corpus.Moderate, 6<<10, 19), corpus.Generate(corpus.High, 2<<10, 19)...)
	parent, err := os.ReadFile("testdata/light_block_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	now := lzfast.Fast{}.Compress(nil, src)
	if bytes.Equal(parent, now) {
		t.Fatal("the fixture equals today's output: it no longer stands for another encoder")
	}
	for name, comp := range map[string][]byte{"parent": parent, "current": now} {
		for dec, decompress := range map[string]func(dst, src []byte, n int) ([]byte, error){
			"reference":  lzfast.DecompressRef,
			"production": lzfast.DecompressFast,
		} {
			out, err := decompress(nil, comp, len(src))
			if err != nil || !bytes.Equal(out, src) {
				t.Errorf("%s encoder's block through the %s decoder: err %v, equal %v", name, dec, err, bytes.Equal(out, src))
			}
		}
	}
}
