package stream

import (
	"bytes"
	"io"
	"testing"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/corpus"
)

// TestReadDirectRoundTrip fills the writer straight from a source reader
// (the relay's zero-copy ingest) and verifies the decoded stream is
// byte-identical, across levels and payload kinds.
func TestReadDirectRoundTrip(t *testing.T) {
	blocktest.Track(t)
	for lvl := 0; lvl < 4; lvl++ {
		for _, kind := range corpus.Kinds() {
			src := corpus.Generate(kind, 300<<10, 11)
			var wire bytes.Buffer
			w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: lvl})
			n, err := w.ReadFrom(bytes.NewReader(src))
			if err != nil {
				t.Fatalf("level %d %s: ReadFrom: %v", lvl, kind, err)
			}
			if n != int64(len(src)) {
				t.Fatalf("level %d %s: ReadFrom moved %d bytes, want %d", lvl, kind, n, len(src))
			}
			if err := w.Close(); err != nil {
				t.Fatalf("level %d %s: close: %v", lvl, kind, err)
			}
			out, err := io.ReadAll(mustReader(t, &wire))
			if err != nil {
				t.Fatalf("level %d %s: read: %v", lvl, kind, err)
			}
			if !bytes.Equal(out, src) {
				t.Fatalf("level %d %s: round trip mismatch", lvl, kind)
			}
		}
	}
}

// TestBufferedTracksPendingBlock: Buffered reports the pending partial
// block and returns to zero once a frame is cut.
func TestBufferedTracksPendingBlock(t *testing.T) {
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: 0, BlockSize: 8 << 10})
	if w.Buffered() != 0 {
		t.Fatalf("fresh writer Buffered = %d", w.Buffered())
	}
	if _, err := w.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if w.Buffered() != 100 {
		t.Fatalf("Buffered = %d after 100-byte write", w.Buffered())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Buffered() != 0 {
		t.Fatalf("Buffered = %d after Flush", w.Buffered())
	}
	// Filling exactly one block cuts the frame without a flush.
	if _, err := w.ReadDirect(bytes.NewReader(make([]byte, 8<<10))); err != nil {
		t.Fatal(err)
	}
	if w.Buffered() != 0 {
		t.Fatalf("Buffered = %d after full-block ReadDirect", w.Buffered())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadDirectTimeoutNotSticky: a transient source error (the relay's
// coalescing deadline expiry) must not poison the writer — subsequent
// reads and flushes proceed.
func TestReadDirectTimeoutNotSticky(t *testing.T) {
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: 0})
	src := []byte("partial block")
	if _, err := w.ReadDirect(bytes.NewReader(src)); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	// The source "times out": the error surfaces but the writer stays good.
	if _, err := w.ReadDirect(errReader{}); err == nil {
		t.Fatal("transient source error swallowed")
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush after transient source error: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(mustReader(t, &wire))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Fatalf("round trip mismatch after transient error: %q", out)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, io.ErrNoProgress }

// TestCopyAccounting pins the user-space copy ledger (Stats.CopiedBytes /
// PassthroughBytes): Write() stages (one copy per byte), ReadDirect does
// not, codec transforms count one copy per raw byte, and stored-raw frames
// from direct ingest are pure passthrough.
func TestCopyAccounting(t *testing.T) {
	high := corpus.Generate(corpus.High, 256<<10, 21) // compressible: codec engages at LIGHT

	cases := []struct {
		name             string
		level, workers   int  // workers: NewParallelWriter's, 0 for NewWriter
		direct           bool // ReadDirect vs Write
		copied, passthru int64
	}{
		{"write-NO", 0, 0, false, int64(len(high)), 0},
		{"direct-NO", 0, 0, true, 0, int64(len(high))},
		{"write-LIGHT", 1, 0, false, 2 * int64(len(high)), 0},
		{"direct-LIGHT", 1, 0, true, int64(len(high)), 0},
		// Pipeline stored-raw frames ride the same vectored two-piece write
		// as the serial path, so direct-ingest identity blocks stay
		// copy-free; compressed pipeline frames cost the codec copy.
		{"pipeline-direct-NO", 0, 4, true, 0, int64(len(high))},
		{"pipeline-direct-LIGHT", 1, 4, true, int64(len(high)), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wire bytes.Buffer
			w := mustParallelWriter(t, &wire, WriterConfig{Static: true, StaticLevel: tc.level}, tc.workers)
			var err error
			if tc.direct {
				_, err = w.ReadFrom(bytes.NewReader(high))
			} else {
				_, err = w.Write(high)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			st := w.Stats()
			if st.CopiedBytes != tc.copied {
				t.Errorf("CopiedBytes = %d, want %d", st.CopiedBytes, tc.copied)
			}
			if st.PassthroughBytes != tc.passthru {
				t.Errorf("PassthroughBytes = %d, want %d", st.PassthroughBytes, tc.passthru)
			}
			// The decoded stream must be intact regardless of accounting.
			out, err := io.ReadAll(mustReader(t, &wire))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, high) {
				t.Fatal("round trip mismatch")
			}
		})
	}
}

// TestReaderCopyCounters: WriteTo delivers identity frames without a
// user-space copy (passthrough), decoded frames via one arena copy, and
// the plain Read path always copies out.
func TestReaderCopyCounters(t *testing.T) {
	blocktest.Track(t)
	high := corpus.Generate(corpus.High, 128<<10, 5)

	encode := func(level int) *bytes.Buffer {
		var wire bytes.Buffer
		w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: level})
		if _, err := w.ReadFrom(bytes.NewReader(high)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return &wire
	}

	// Identity frames + WriteTo: all passthrough.
	r := mustReader(t, encode(0))
	var out bytes.Buffer
	if _, err := r.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), high) {
		t.Fatal("identity WriteTo mismatch")
	}
	if st := r.Stats(); st.CopiedBytes != 0 || st.PassthroughBytes != int64(len(high)) {
		t.Errorf("identity WriteTo: copied=%d passthrough=%d, want 0/%d", st.CopiedBytes, st.PassthroughBytes, len(high))
	}

	// Compressed frames + WriteTo: the codec's decode is the one copy.
	r = mustReader(t, encode(1))
	out.Reset()
	if _, err := r.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.CopiedBytes != int64(len(high)) || st.PassthroughBytes != 0 {
		t.Errorf("decode WriteTo: copied=%d passthrough=%d, want %d/0", st.CopiedBytes, st.PassthroughBytes, len(high))
	}

	// Identity frames via plain Read: the arena decode copy counts.
	r = mustReader(t, encode(0))
	if _, err := io.Copy(&out, struct{ io.Reader }{r}); err != nil { // hide WriteTo
		t.Fatal(err)
	}
	if copied := r.Stats().CopiedBytes; copied != int64(len(high)) {
		t.Errorf("plain Read: copied=%d, want %d", copied, len(high))
	}
}
