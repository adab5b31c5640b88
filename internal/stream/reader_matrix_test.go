package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/corpus"
	"adaptio/internal/faultio/leakcheck"
)

// matrixStream is the stream every row of the reader matrix starts from:
// every corpus kind at every ladder level (so stored-raw, raw-fallback and
// all three codec frames occur, and the level changes mid-stream), cut into
// 4 KiB blocks. Frames are self-contained, so the concatenation of the
// per-level streams is itself a valid stream.
type matrixStream struct {
	wire, payload []byte
	wireOff       []int // wire offset of each frame's first header byte
	rawOff        []int // payload offset of each frame's first raw byte
}

func buildMatrixStream(t *testing.T) matrixStream {
	t.Helper()
	var s matrixStream
	var wire bytes.Buffer
	for _, kind := range corpus.Kinds() {
		for level := LevelNo; level <= LevelHeavy; level++ {
			src := corpus.Generate(kind, 6*4096-100, uint64(level))
			w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: level, BlockSize: 4096})
			if _, err := w.Write(src); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			s.payload = append(s.payload, src...)
		}
	}
	s.wire = wire.Bytes()
	for off, raw := 0, 0; off < len(s.wire); {
		s.wireOff = append(s.wireOff, off)
		s.rawOff = append(s.rawOff, raw)
		raw += int(binary.LittleEndian.Uint32(s.wire[off+4:]))
		off += headerSize + int(binary.LittleEndian.Uint32(s.wire[off+8:]))
	}
	return s
}

// frameWithCodec returns the index of the n-th frame (0-based) whose header
// names the given codec family: identity (stored raw) or not.
func (s matrixStream) frameWithCodec(t *testing.T, identity bool, n int) int {
	t.Helper()
	for k, off := range s.wireOff {
		if (s.wire[off+3] == 0) == identity {
			if n == 0 {
				return k
			}
			n--
		}
	}
	t.Fatal("matrix stream lacks the requested frame kind")
	return -1
}

// limitWriter accepts n bytes in total, then fails: the WriteTo-side way of
// abandoning a stream early.
type limitWriter struct {
	buf bytes.Buffer
	n   int
}

var errSinkFull = errors.New("sink full")

func (w *limitWriter) Write(p []byte) (int, error) {
	if room := w.n - w.buf.Len(); len(p) > room {
		w.buf.Write(p[:room])
		return room, errSinkFull
	}
	return w.buf.Write(p)
}

// readerOutcome is everything a consumer can observe of one reader run.
type readerOutcome struct {
	delivered        []byte
	err              error
	raw, wire, block int64
}

// TestReaderMatrix is the one conformance suite for the read path: every
// constructor (NewReader, and the deprecated NewParallelReader shim at 1, 2,
// 4 and 8 workers, which must be NewReader in all but name) under both
// delivery methods must treat every stream — clean, empty, damaged in each
// way the corrupt-frame policy names, or abandoned early — exactly alike:
// same delivered bytes (never a byte of a bad frame), same
// *FrameError{Frame, Offset}, same Counters, sticky error, and no arena
// buffer or goroutine left behind.
func TestReaderMatrix(t *testing.T) {
	s := buildMatrixStream(t)
	if len(s.wireOff) < 60 {
		t.Fatalf("matrix stream has only %d frames", len(s.wireOff))
	}
	mutate := func(f func(wire []byte, k int) []byte, k int) []byte {
		return f(append([]byte(nil), s.wire...), k)
	}
	flip := func(wire []byte, k int) []byte {
		wire[s.wireOff[k]+headerSize+3] ^= 0x10 // payload bit: CRC or decode failure
		return wire
	}
	idFrame := s.frameWithCodec(t, true, 3)
	codecFrame := s.frameWithCodec(t, false, 9)
	last := len(s.wireOff) - 1

	// badFrame >= 0: the run must fail with a *FrameError naming that frame
	// after delivering exactly the frames before it. closeAfter > 0: the
	// consumer abandons the stream after that many bytes.
	rows := []struct {
		name       string
		wire       []byte
		badFrame   int
		closeAfter int
	}{
		{name: "clean", wire: s.wire, badFrame: -1},
		{name: "empty", wire: nil, badFrame: -1},
		{name: "bit-flip/stored-raw-frame", wire: mutate(flip, idFrame), badFrame: idFrame},
		{name: "bit-flip/codec-frame", wire: mutate(flip, codecFrame), badFrame: codecFrame},
		{name: "bit-flip/first-frame", wire: mutate(flip, 0), badFrame: 0},
		{name: "bad-magic", badFrame: 5, wire: mutate(func(w []byte, k int) []byte {
			w[s.wireOff[k]] ^= 0xA5
			return w
		}, 5)},
		{name: "unknown-codec", badFrame: 7, wire: mutate(func(w []byte, k int) []byte {
			w[s.wireOff[k]+3] = 200
			return w
		}, 7)},
		{name: "oversized-raw-length", badFrame: 4, wire: mutate(func(w []byte, k int) []byte {
			binary.LittleEndian.PutUint32(w[s.wireOff[k]+4:], MaxBlockSize+1)
			return w
		}, 4)},
		{name: "truncated-header", wire: s.wire[:s.wireOff[11]+5], badFrame: 11},
		{name: "truncated-payload", wire: s.wire[:s.wireOff[2]+headerSize+1], badFrame: 2},
		{name: "truncated-last-3-bytes", wire: s.wire[:len(s.wire)-3], badFrame: last},
		{name: "early-close", wire: s.wire, badFrame: -1, closeAfter: 1000},
	}
	constructors := []struct {
		name string
		open func(io.Reader) (*Reader, error)
	}{
		{"NewReader", NewReader},
		{"NewParallelReader1", func(src io.Reader) (*Reader, error) { return NewParallelReader(src, 1) }},
		{"NewParallelReader2", func(src io.Reader) (*Reader, error) { return NewParallelReader(src, 2) }},
		{"NewParallelReader4", func(src io.Reader) (*Reader, error) { return NewParallelReader(src, 4) }},
		{"NewParallelReader8", func(src io.Reader) (*Reader, error) { return NewParallelReader(src, 8) }},
	}
	for _, c := range constructors {
		if _, err := c.open(nil); err == nil {
			t.Errorf("%s accepted a nil source", c.name)
		}
	}

	for _, row := range rows {
		for _, viaWriteTo := range []bool{false, true} {
			method := "Read"
			if viaWriteTo {
				method = "WriteTo"
			}
			var ref *readerOutcome // NewReader's outcome; the others must match it
			for _, c := range constructors {
				t.Run(fmt.Sprintf("%s/%s/%s", row.name, method, c.name), func(t *testing.T) {
					leakcheck.Check(t)
					blocktest.Track(t)
					r, err := c.open(bytes.NewReader(row.wire))
					if err != nil {
						t.Fatal(err)
					}
					var got readerOutcome
					switch {
					case viaWriteTo && row.closeAfter > 0:
						sink := &limitWriter{n: row.closeAfter}
						if _, err := r.WriteTo(sink); err != errSinkFull {
							t.Fatalf("WriteTo into a full sink returned %v", err)
						}
						got.delivered = sink.buf.Bytes()
					case viaWriteTo:
						var sink bytes.Buffer
						var n int64
						n, got.err = r.WriteTo(&sink)
						got.delivered = sink.Bytes()
						if n != int64(sink.Len()) {
							t.Errorf("WriteTo reported %d bytes, wrote %d", n, sink.Len())
						}
					case row.closeAfter > 0:
						got.delivered = make([]byte, row.closeAfter)
						if _, err := io.ReadFull(r, got.delivered); err != nil {
							t.Fatal(err)
						}
					default:
						got.delivered, got.err = io.ReadAll(r)
					}
					st := r.Stats()
					got.raw, got.wire, got.block = st.AppBytes, st.WireBytes, st.Blocks

					// The terminal condition is sticky; Close is idempotent
					// and leaves a reader that only reports why it stopped.
					wantAfter := got.err
					if got.err == nil {
						wantAfter = io.EOF
					}
					if row.closeAfter > 0 {
						if err := r.Close(); err != nil {
							t.Fatal(err)
						}
						wantAfter = errReaderClosed
					}
					if _, err := r.Read(make([]byte, 1)); err != wantAfter {
						t.Errorf("read after the end returned %v, want %v", err, wantAfter)
					}
					r.Close()
					r.Close()

					// Absolute expectations.
					switch {
					case row.badFrame >= 0:
						var fe *FrameError
						if !errors.As(got.err, &fe) || !errors.Is(got.err, ErrBadFrame) {
							t.Fatalf("error %v is not a *FrameError wrapping ErrBadFrame", got.err)
						}
						if fe.Frame != int64(row.badFrame) || fe.Offset != int64(s.wireOff[row.badFrame]) {
							t.Errorf("error locates frame %d at %d, want frame %d at %d",
								fe.Frame, fe.Offset, row.badFrame, s.wireOff[row.badFrame])
						}
						if want := s.payload[:s.rawOff[row.badFrame]]; !bytes.Equal(got.delivered, want) {
							t.Errorf("delivered %d bytes before the bad frame, want the %d intact ones", len(got.delivered), len(want))
						}
						if got.block != int64(row.badFrame) || got.wire != int64(s.wireOff[row.badFrame]) {
							t.Errorf("counters blocks=%d wire=%d, want %d/%d", got.block, got.wire, row.badFrame, s.wireOff[row.badFrame])
						}
					case row.closeAfter > 0:
						if !bytes.Equal(got.delivered, s.payload[:row.closeAfter]) {
							t.Error("bytes delivered before the early Close differ from the source")
						}
					default:
						if got.err != nil {
							t.Fatalf("clean stream failed: %v", got.err)
						}
						want := s.payload
						if len(row.wire) == 0 {
							want = nil
						}
						if !bytes.Equal(got.delivered, want) {
							t.Error("clean stream does not decode to the source")
						}
						if got.raw != int64(len(want)) || got.wire != int64(len(row.wire)) {
							t.Errorf("counters raw=%d wire=%d, want %d/%d", got.raw, got.wire, len(want), len(row.wire))
						}
					}

					// Relative expectations: indistinguishable from NewReader.
					if ref == nil {
						ref = &got
						return
					}
					if !bytes.Equal(got.delivered, ref.delivered) {
						t.Errorf("delivered %d bytes, NewReader delivered %d", len(got.delivered), len(ref.delivered))
					}
					if fmt.Sprint(got.err) != fmt.Sprint(ref.err) {
						t.Errorf("error %q, NewReader's %q", got.err, ref.err)
					}
					if got.raw != ref.raw || got.wire != ref.wire || got.block != ref.block {
						t.Errorf("counters %d/%d/%d, NewReader's %d/%d/%d",
							got.raw, got.wire, got.block, ref.raw, ref.wire, ref.block)
					}
				})
			}
		}
	}
}
