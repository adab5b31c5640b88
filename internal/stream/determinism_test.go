package stream_test

// Wire-determinism property: for a pinned compression level, the bytes a
// Writer puts on the wire are a pure function of the application bytes —
// independent of who encodes them (the caller inline, the bare writer's own
// workers for a multi-block Write, a private worker pool, or a pool shared
// with another writer; these also differ in contiguous-vs-vectored framing
// and in which goroutine emits) and of how the application chops its Write
// calls. The parallel reader relies on frames being self-describing, not on
// this property, but it pins down that the pipeline cannot reorder,
// duplicate or re-split blocks, and that a shared pool cannot hand one
// writer's frame to another.

import (
	"bytes"
	"fmt"
	"io"
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
	writeChunked(t, w, src, randomChunks(rng))
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
	writeChunked(t, w, src, randomChunks(rng))
	return buf.Bytes()
}

type chunkWriter interface {
	Write([]byte) (int, error)
	Close() error
}

// writeChunked writes src to w in chunks of the sizes size picks, then
// closes w.
func writeChunked(t *testing.T, w chunkWriter, src []byte, size func(off int) int) {
	t.Helper()
	for off := 0; off < len(src); {
		n := min(size(off), len(src)-off)
		if _, err := w.Write(src[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// randomChunks is a chunking of 1 to 96 KiB writes drawn from rng.
func randomChunks(rng *rand.Rand) func(off int) int {
	return func(int) int { return 1 + rng.Intn(96<<10) }
}

// phased is a chunking that goes small → bulk → small through a source of
// total bytes: chunks of up to 2 KiB over its first and last thirds, of
// 64–320 KiB in between. A writer's pending block starts in the arena's
// smallest class and grows with what arrives, so it grows by every step
// Write and ReadDirect can take.
func phased(rng *rand.Rand, total int) func(off int) int {
	return func(off int) int {
		if off < total/3 || off >= 2*total/3 {
			return 1 + rng.Intn(2<<10)
		}
		return 64<<10 + rng.Intn(256<<10)
	}
}

// chunkReader hands out src in the chunks size picks, one per Read.
type chunkReader struct {
	src  []byte
	off  int
	size func(off int) int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if r.off == len(r.src) {
		return 0, io.EOF
	}
	n := copy(p, r.src[r.off:min(len(r.src), r.off+r.size(r.off))])
	r.off += n
	return n, nil
}

// encodePhased feeds src in phased chunks to a Writer (a ParallelWriter when
// workers > 0), by Write or by ReadDirect, and returns the wire bytes.
func encodePhased(t *testing.T, cfg stream.WriterConfig, workers int, src []byte, rng *rand.Rand, direct bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, cfg)
	if workers > 0 {
		w, err = stream.NewParallelWriter(&buf, cfg, workers)
	}
	if err != nil {
		t.Fatal(err)
	}
	size := phased(rng, len(src))
	if !direct {
		writeChunked(t, w, src, size)
		return buf.Bytes()
	}
	if _, err := w.ReadFrom(&chunkReader{src: src, size: size}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

			// The same input through the parallel pipeline, and again
			// serially with a different chunking, must produce the
			// identical wire stream.
			for trial := 0; trial < 3; trial++ {
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

			// Small chunks, then bulk, then small again, written and read in
			// directly, inline and on workers: the pending block grows by
			// every path, and no cut point moves.
			for _, direct := range []bool{false, true} {
				for _, workers := range []int{0, 2} {
					if !bytes.Equal(want, encodePhased(t, serialCfg, workers, src, rng, direct)) {
						t.Fatalf("small → bulk → small chunks (direct %v, %d workers): wire bytes differ", direct, workers)
					}
				}
			}

			// One Write of the whole source: above GOMAXPROCS 1 the bare
			// writer encodes its blocks in batches on workers of its own.
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
