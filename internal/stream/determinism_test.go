package stream_test

// Wire-determinism property: for a pinned compression level, the bytes a
// Writer puts on the wire are a pure function of the application bytes —
// independent of who encodes them (the caller inline, goroutines forked for
// one multi-block Write, a private worker pool, or a pool shared with another
// writer; these also differ in
// contiguous-vs-vectored framing and in which goroutine emits) and of how
// the application chops its Write calls. The parallel reader relies on
// frames being self-describing, not on this property, but it pins down that
// the pipeline cannot reorder, duplicate or re-split blocks, and that a
// shared pool cannot hand one writer's frame to another.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"adaptio/internal/corpus"
	"adaptio/internal/stream"
)

// encodeChunked writes src through a Writer in random-sized chunks drawn
// from rng and returns the wire bytes.
func encodeChunked(t *testing.T, cfg stream.WriterConfig, src []byte, rng *rand.Rand) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	writeChunked(t, w, &buf, src, rng)
	return buf.Bytes()
}

// encodeChunkedParallel is encodeChunked through the public ParallelWriter.
func encodeChunkedParallel(t *testing.T, cfg stream.WriterConfig, workers int, src []byte, rng *rand.Rand) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := stream.NewParallelWriter(&buf, cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	writeChunked(t, w, &buf, src, rng)
	return buf.Bytes()
}

type chunkWriter interface {
	Write([]byte) (int, error)
	Close() error
}

func writeChunked(t *testing.T, w chunkWriter, buf *bytes.Buffer, src []byte, rng *rand.Rand) {
	t.Helper()
	for off := 0; off < len(src); {
		n := 1 + rng.Intn(96<<10)
		if off+n > len(src) {
			n = len(src) - off
		}
		if _, err := w.Write(src[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// encodeInterleaved writes each source through its own Writer, all of them
// on the one shared pool, a random-sized chunk to one writer after the other,
// so frames of different streams are in flight together. It returns the wire
// bytes per source.
func encodeInterleaved(t *testing.T, cfg stream.WriterConfig, srcs [][]byte, rng *rand.Rand) [][]byte {
	t.Helper()
	bufs := make([]bytes.Buffer, len(srcs))
	ws := make([]*stream.Writer, len(srcs))
	for i := range srcs {
		w, err := stream.NewWriter(&bufs[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	offs := make([]int, len(srcs))
	for busy := true; busy; {
		busy = false
		for i, src := range srcs {
			if offs[i] == len(src) {
				continue
			}
			busy = true
			n := min(1+rng.Intn(96<<10), len(src)-offs[i])
			if _, err := ws[i].Write(src[offs[i] : offs[i]+n]); err != nil {
				t.Fatal(err)
			}
			offs[i] += n
		}
	}
	wires := make([][]byte, len(srcs))
	for i, w := range ws {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		wires[i] = bufs[i].Bytes()
	}
	return wires
}

func TestWireDeterminismSerialVsParallel(t *testing.T) {
	// Interleave all compressibility classes, and a stripe of noise the
	// entropy probe gives up on, so the static levels see compressible and
	// incompressible blocks (i.e. both contiguous and stored-raw frames) and
	// a pool sees frames its workers made next to frames the caller made.
	var src []byte
	noise := make([]byte, 300<<10)
	rand.New(rand.NewSource(42)).Read(noise)
	for _, kind := range corpus.Kinds() {
		src = append(src, corpus.Generate(kind, 700<<10, 42)...)
		src = append(src, noise...)
	}
	// A second stream for the shared pool: other bytes, other block cuts.
	other := append(corpus.Generate(corpus.Moderate, 900<<10, 7), noise[:100<<10]...)
	other = append(other, corpus.Generate(corpus.High, 333<<10, 7)...)
	pool := stream.NewEncodePool(3)
	defer pool.Close()
	for level := stream.LevelNo; level <= stream.LevelHeavy; level++ {
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			serialCfg := stream.WriterConfig{Static: true, StaticLevel: level}
			rng := rand.New(rand.NewSource(int64(level)))
			want := encodeChunked(t, serialCfg, src, rng)

			// The same input through the parallel pipeline (both the
			// Parallelism knob and the public ParallelWriter), and again
			// serially with a different chunking, must produce the
			// identical wire stream.
			for trial := 0; trial < 3; trial++ {
				parCfg := serialCfg
				parCfg.Parallelism = 2 + trial
				got := encodeChunked(t, parCfg, src, rng)
				if !bytes.Equal(want, got) {
					t.Fatalf("parallelism %d: wire bytes differ from serial writer (%d vs %d bytes)",
						parCfg.Parallelism, len(got), len(want))
				}
				pw := encodeChunkedParallel(t, serialCfg, 2+trial, src, rng)
				if !bytes.Equal(want, pw) {
					t.Fatalf("ParallelWriter(%d workers): wire bytes differ from serial writer (%d vs %d bytes)",
						2+trial, len(pw), len(want))
				}
				reChunked := encodeChunked(t, serialCfg, src, rng)
				if !bytes.Equal(want, reChunked) {
					t.Fatal("serial wire bytes depend on application chunk sizes")
				}
			}

			// One Write of the whole source: above GOMAXPROCS 1 the inline
			// writer encodes its blocks in forked batches.
			if !bytes.Equal(want, encodeWire(t, src, level)) {
				t.Fatal("serial wire bytes of one multi-block Write differ from the chunked writer's")
			}

			// Two writers on one shared worker set, fed turn and turn about,
			// must each produce what the inline writer produces alone.
			sharedCfg := serialCfg
			sharedCfg.Pool = pool
			wantOther := encodeChunked(t, serialCfg, other, rng)
			for i, got := range encodeInterleaved(t, sharedCfg, [][]byte{src, other}, rng) {
				if !bytes.Equal(got, [][]byte{want, wantOther}[i]) {
					t.Fatalf("shared pool, stream %d: wire bytes differ from the inline writer's", i)
				}
			}

			// And the stream must still decode to the application bytes.
			r, err := stream.NewReader(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if _, err := out.ReadFrom(r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), src) {
				t.Fatal("deterministic wire stream does not decode to the input")
			}
		})
	}
}
