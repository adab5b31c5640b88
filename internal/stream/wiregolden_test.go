package stream

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"adaptio/internal/corpus"
	"adaptio/internal/vclock"
)

var updateWireGolden = flag.Bool("update", false, "rewrite testdata/wire.golden with the current wire bytes")

const wireGoldenPath = "testdata/wire.golden"

// wireGoldenSize is three full default blocks plus a partial one.
const wireGoldenSize = 3*DefaultBlockSize + 12345

// goldenWriter is what every writer constructor under test hands back.
type goldenWriter interface {
	io.Writer
	io.ReaderFrom
	io.Closer
}

// wireGoldenCase is one pinned stream: feed drives the source bytes into a
// writer built from cfg (it may advance the case's clock between calls).
type wireGoldenCase struct {
	name string
	src  []byte
	cfg  func() WriterConfig
	feed func(t *testing.T, w goldenWriter, src []byte)
}

func feedWhole(t *testing.T, w goldenWriter, src []byte) {
	t.Helper()
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
}

func feedReadFrom(t *testing.T, w goldenWriter, src []byte) {
	t.Helper()
	if n, err := w.ReadFrom(bytes.NewReader(src)); err != nil || n != int64(len(src)) {
		t.Fatalf("ReadFrom moved %d of %d bytes: %v", n, len(src), err)
	}
}

// feedChunked writes src in seeded random chunks of 1 KiB to 200 KiB.
func feedChunked(seed int64) func(*testing.T, goldenWriter, []byte) {
	return func(t *testing.T, w goldenWriter, src []byte) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for len(src) > 0 {
			n := min(1<<10+rng.Intn(199<<10+1), len(src))
			if _, err := w.Write(src[:n]); err != nil {
				t.Fatal(err)
			}
			src = src[n:]
		}
	}
}

func wireGoldenCases() []wireGoldenCase {
	var cases []wireGoldenCase
	for _, kind := range corpus.Kinds() {
		src := corpus.Generate(kind, wireGoldenSize, 1311)
		for level := LevelNo; level <= LevelHeavy; level++ {
			static := func() WriterConfig { return WriterConfig{Static: true, StaticLevel: level} }
			for _, mode := range []struct {
				name string
				feed func(*testing.T, goldenWriter, []byte)
			}{
				{"whole", feedWhole},
				{"chunked", feedChunked(int64(kind)*10 + int64(level))},
				{"readfrom", feedReadFrom},
			} {
				cases = append(cases, wireGoldenCase{
					name: fmt.Sprintf("%s/level%d/%s", kind, level, mode.name),
					src:  src, cfg: static, feed: mode.feed,
				})
			}
		}
	}

	// One adaptive run: a scripted policy on a manual clock walks the ladder
	// up and back down, so the stream switches level (and cuts the pending
	// partial block) mid-stream.
	clk := vclock.NewManual()
	cases = append(cases, wireGoldenCase{
		name: "moderate/scripted/chunked",
		src:  corpus.Generate(corpus.Moderate, wireGoldenSize, 1311),
		cfg: func() WriterConfig {
			return WriterConfig{
				Clock: clk, Window: time.Second, BlockSize: 48 << 10,
				Decider: &recordingPolicy{levels: []int{0, 1, 1, 2, 3, 3, 1, 0, 2}},
			}
		},
		feed: func(t *testing.T, w goldenWriter, src []byte) {
			t.Helper()
			for len(src) > 0 {
				n := min(20<<10, len(src))
				if _, err := w.Write(src[:n]); err != nil {
					t.Fatal(err)
				}
				src = src[n:]
				clk.Advance(400 * time.Millisecond)
			}
		},
	})
	return cases
}

// encodeGolden runs one case through the writer open builds and returns the
// wire bytes.
func encodeGolden(t *testing.T, tc wireGoldenCase, open func(io.Writer, WriterConfig) (goldenWriter, error)) []byte {
	t.Helper()
	var wire bytes.Buffer
	w, err := open(&wire, tc.cfg())
	if err != nil {
		t.Fatal(err)
	}
	tc.feed(t, w, tc.src)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

func wireDigest(wire []byte) string {
	return fmt.Sprintf("%d %x", len(wire), sha256.Sum256(wire))
}

// TestWireGolden pins the wire format across builds, not just round-trip
// equality within one: testdata/wire.golden holds length and SHA-256 of the
// wire bytes for every corpus kind, static level and ingest path, plus one
// policy-driven stream. Every writer mode must reproduce every digest, and
// both reader modes must decode each stream back to its source.
func TestWireGolden(t *testing.T) {
	serial := func(dst io.Writer, cfg WriterConfig) (goldenWriter, error) { return NewWriter(dst, cfg) }
	cases := wireGoldenCases()

	if *updateWireGolden {
		var out strings.Builder
		for _, tc := range cases {
			fmt.Fprintf(&out, "%s %s\n", tc.name, wireDigest(encodeGolden(t, tc, serial)))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = digest
	}
	if len(want) != len(cases) {
		t.Fatalf("golden holds %d streams, the suite has %d", len(want), len(cases))
	}

	withParallelism := func(p int) func(io.Writer, WriterConfig) (goldenWriter, error) {
		return func(dst io.Writer, cfg WriterConfig) (goldenWriter, error) {
			cfg.Parallelism = p
			return NewWriter(dst, cfg)
		}
	}
	writers := []struct {
		name string
		open func(io.Writer, WriterConfig) (goldenWriter, error)
	}{
		{"serial", serial},
		{"parallelism2", withParallelism(2)},
		{"parallelism4", withParallelism(4)},
		{"NewParallelWriter3", func(dst io.Writer, cfg WriterConfig) (goldenWriter, error) {
			return NewParallelWriter(dst, cfg, 3)
		}},
	}
	readers := []struct {
		name string
		open func(io.Reader) (io.ReadCloser, error)
	}{
		{"NewReader", func(src io.Reader) (io.ReadCloser, error) { return NewReader(src) }},
		{"NewParallelReader3", func(src io.Reader) (io.ReadCloser, error) { return NewParallelReader(src, 3) }},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wire []byte
			for _, wr := range writers {
				wire = encodeGolden(t, tc, wr.open)
				if got := wireDigest(wire); got != want[tc.name] {
					t.Fatalf("%s: wire digest %s, golden %s", wr.name, got, want[tc.name])
				}
			}
			for _, rd := range readers {
				r, err := rd.open(bytes.NewReader(wire))
				if err != nil {
					t.Fatal(err)
				}
				out, err := io.ReadAll(r)
				r.Close()
				if err != nil {
					t.Fatalf("%s: %v", rd.name, err)
				}
				if !bytes.Equal(out, tc.src) {
					t.Fatalf("%s: decoded stream differs from the source", rd.name)
				}
			}
		})
	}
}
