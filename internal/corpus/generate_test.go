package corpus_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"adaptio/internal/corpus"
)

// TestGenerateDigests pins Generate's bytes, and the reference generator's
// (ref_test.go): every codec, wire and harness golden in the repository is
// computed over them, so a generator may change how it produces its output
// but never what it produces. Each line of
// testdata/generate.golden is "<kind> <n> <seed> <sha256>", one per kind at
// every goldenSizes size and seeds 1–3; -short skips the 24 MiB lines.
func TestGenerateDigests(t *testing.T) {
	f, err := os.Open("testdata/generate.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var kind, digest string
		var n int
		var seed uint64
		if _, err := fmt.Sscanf(sc.Text(), "%s %d %d %s", &kind, &n, &seed, &digest); err != nil {
			t.Fatalf("generate.golden: %q: %v", sc.Text(), err)
		}
		want[fmt.Sprintf("%s/%d/%d", kind, n, seed)] = digest
	}
	generators := []struct {
		name     string
		generate func(corpus.Kind, int, uint64) []byte
	}{{"Generate", corpus.Generate}, {"GenerateRef", corpus.GenerateRef}}
	for _, kind := range corpus.Kinds() {
		for _, n := range goldenSizes(kind) {
			if n > 8<<20 && testing.Short() {
				continue
			}
			for seed := uint64(1); seed <= 3; seed++ {
				key := fmt.Sprintf("%s/%d/%d", kind, n, seed)
				for _, g := range generators {
					sum := sha256.Sum256(g.generate(kind, n, seed))
					if got := hex.EncodeToString(sum[:]); got != want[key] {
						t.Errorf("%s %s: digest %s, want %q", g.name, key, got, want[key])
					}
				}
			}
		}
	}
}

// goldenSizes lists the sizes testdata/generate.golden pins for the kind.
func goldenSizes(kind corpus.Kind) []int {
	return []int{1, 4095, kind.FileSize(), 1 << 20, 8 << 20, 24 << 20}
}

// maxFuzzBytes bounds the size FuzzGenerateMatchesReference generates.
const maxFuzzBytes = 1 << 20

// FuzzGenerateMatchesReference compares Generate with the reference
// generator (ref_test.go) byte for byte at any kind, size up to maxFuzzBytes
// and seed. The golden pins only its sizes; a generator that stores whole
// words at fixed width goes wrong, if anywhere, at a size that cuts a word,
// a sentence end or a paragraph break, so the seed corpus adds such sizes
// from the reference's own text.
func FuzzGenerateMatchesReference(f *testing.F) {
	text := corpus.GenerateRef(corpus.Moderate, 4<<10, 1)
	var cuts []int
	for _, sep := range []string{"\n\n", ". ", ".\n", " "} {
		if i := bytes.Index(text, []byte(sep)); i >= 0 {
			cuts = append(cuts, i, i+1, i+2)
		}
	}
	for _, kind := range corpus.Kinds() {
		for _, n := range append(goldenSizes(kind), cuts...) {
			if n <= maxFuzzBytes {
				f.Add(uint8(kind), uint32(n), uint64(1))
			}
		}
	}
	f.Fuzz(func(t *testing.T, k uint8, size uint32, seed uint64) {
		kind, n := corpus.Kind(int(k)%len(corpus.Kinds())), int(size%(maxFuzzBytes+1))
		got, want := corpus.Generate(kind, n, seed), corpus.GenerateRef(kind, n, seed)
		if len(got) != n {
			t.Fatalf("Generate(%s, %d, %d) returned %d bytes", kind, n, seed, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Generate(%s, %d, %d) differs from the reference at byte %d: %q, want %q",
					kind, n, seed, i, got[max(i-8, 0):min(i+8, n)], want[max(i-8, 0):min(i+8, n)])
			}
		}
	})
}

// TestGenerateAllocs holds Generate to a fixed number of allocations, the
// output slice and the generator's state, whatever the size: a generator
// that allocates per word or per row shows up as a count that grows a
// thousandfold from 4 KiB to 4 MiB.
func TestGenerateAllocs(t *testing.T) {
	for _, kind := range corpus.Kinds() {
		small := testing.AllocsPerRun(10, func() { corpus.Generate(kind, 4<<10, 1) })
		large := testing.AllocsPerRun(2, func() { corpus.Generate(kind, 4<<20, 1) })
		if small != large {
			t.Errorf("%s: Generate allocates %.0f times for 4 KiB and %.0f for 4 MiB, want equal", kind, small, large)
		}
	}
}

var generated []byte

func BenchmarkGenerate(b *testing.B) {
	const n = 4 << 20
	for _, kind := range corpus.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			b.SetBytes(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				generated = corpus.Generate(kind, n, uint64(i))
			}
		})
	}
}
