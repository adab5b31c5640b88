package corpus_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"adaptio/internal/corpus"
)

// TestGenerateDigests pins Generate's bytes: every codec, wire and harness
// golden in the repository is computed over them, so a generator may change
// how it produces its output but never what it produces. Each line of
// testdata/generate.golden is "<kind> <n> <seed> <sha256>", one per kind at
// every size below and seeds 1–3; -short skips the 24 MiB lines.
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
	for _, kind := range corpus.Kinds() {
		for _, n := range []int{1, 4095, kind.FileSize(), 1 << 20, 8 << 20, 24 << 20} {
			if n > 8<<20 && testing.Short() {
				continue
			}
			for seed := uint64(1); seed <= 3; seed++ {
				key := fmt.Sprintf("%s/%d/%d", kind, n, seed)
				sum := sha256.Sum256(corpus.Generate(kind, n, seed))
				if got := hex.EncodeToString(sum[:]); got != want[key] {
					t.Errorf("Generate %s: digest %s, want %q", key, got, want[key])
				}
			}
		}
	}
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
