package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"adaptio/internal/block"
	"adaptio/internal/block/blocktest"
	"adaptio/internal/corpus"
	"adaptio/internal/faultio"
	"adaptio/internal/faultio/leakcheck"
)

var errBoom = errors.New("boom")

// failOnceWriter fails its failAt-th Write (1-based) exactly once and accepts
// everything before and after, recording how many bytes it accepted after
// the failure — a correct writer hands it none. Safe for the pipeline's
// flusher goroutine.
type failOnceWriter struct {
	mu     sync.Mutex
	failAt int
	calls  int
	after  int64 // bytes accepted after the failed call
}

func (w *failOnceWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.calls++
	if w.calls == w.failAt {
		return 0, errBoom
	}
	if w.calls > w.failAt {
		w.after += int64(len(p))
	}
	return len(p), nil
}

// TestNoWriteAfterFailedFrame pins the write-error policy for both writer
// modes: the first failed destination write is sticky, so no later frame —
// and no later piece of the failed frame — reaches the destination, every
// subsequent Write/Flush/Close reports the error, and the frames still in
// flight in the pool are released unwritten.
func TestNoWriteAfterFailedFrame(t *testing.T) {
	compressible := corpus.Generate(corpus.Moderate, 2<<20, 7) // one Write per frame
	storedRaw := incompressible(2<<20, 7)                      // header + aliased block: two Writes per frame
	for _, tc := range []struct {
		name   string
		src    []byte
		failAt int
	}{
		{"head-write", compressible, 3},
		// The first frame's header lands, its vectored payload piece fails.
		{"first-tail-write", storedRaw, 2},
		{"later-tail-write", storedRaw, 6},
	} {
		for _, parallelism := range []int{0, 2, 4} {
			t.Run(fmt.Sprintf("%s/parallelism%d", tc.name, parallelism), func(t *testing.T) {
				leakcheck.Check(t)
				blocktest.Track(t)
				dst := &failOnceWriter{failAt: tc.failAt}
				w := mustParallelWriter(t, dst, WriterConfig{
					Static: true, StaticLevel: LevelLight, BlockSize: 16 << 10,
				}, parallelism)
				if _, err := w.Write(tc.src); !errors.Is(err, errBoom) {
					t.Errorf("Write returned %v, want the destination's error", err)
				}
				if _, err := w.Write(tc.src[:1]); !errors.Is(err, errBoom) {
					t.Errorf("second Write returned %v, want the sticky error", err)
				}
				if err := w.Flush(); !errors.Is(err, errBoom) {
					t.Errorf("Flush returned %v, want the sticky error", err)
				}
				if err := w.Close(); !errors.Is(err, errBoom) {
					t.Errorf("Close returned %v, want the sticky error", err)
				}
				dst.mu.Lock()
				defer dst.mu.Unlock()
				if dst.calls != tc.failAt || dst.after != 0 {
					t.Errorf("destination saw %d Write calls and accepted %d bytes after call %d failed; want none",
						dst.calls, dst.after, tc.failAt)
				}
			})
		}
	}
}

// TestForkedWriteErrorIsSynchronous: the wire failing on frame j of a k-block
// Write is that Write's error, at any batch width. Frames before j are on
// the wire and in the counters, frame j and everything after it are neither,
// and when the call returns every forked encode has been joined — HEAVY
// keeps the later ones of a wide batch running well past the failure — and
// every buffer but the writer's own two is back in the arena.
func TestForkedWriteErrorIsSynchronous(t *testing.T) {
	const blockSize, k = 8 << 10, 11
	src := corpus.Generate(corpus.Moderate, k*blockSize, 9)
	cfg := WriterConfig{Static: true, StaticLevel: LevelHeavy, BlockSize: blockSize}
	var clean bytes.Buffer
	w := mustWriter(t, &clean, cfg)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// ends[i] is the wire offset at which frame i ends.
	var ends []int64
	for _, h := range wireFrames(t, clean.Bytes()) {
		ends = append(ends, int64(headerSize+h.compLen))
		if n := len(ends); n > 1 {
			ends[n-1] += ends[n-2]
		}
	}
	if len(ends) != k {
		t.Fatalf("%d frames on the clean wire, want %d", len(ends), k)
	}

	for _, procs := range []int{1, 2, 4, sharedInFlight} {
		for _, j := range []int{0, 1, 3, 7, k - 1} {
			t.Run(fmt.Sprintf("GOMAXPROCS%d/frame%d", procs, j), func(t *testing.T) {
				leakcheck.Check(t)
				blocktest.Track(t)
				var before int64
				if j > 0 {
					before = ends[j-1]
				}
				// One byte of frame j gets through, then the wire is gone.
				var got bytes.Buffer
				dst := faultio.NewWriter(&got, faultio.Config{ResetAfter: before + 1})
				gets, releases, _ := block.Stats()
				w := newWriterAt(t, procs, dst, cfg)
				n, err := w.Write(src)
				if !errors.Is(err, faultio.ErrInjected) {
					t.Fatalf("Write returned %d, %v; want the wire's error from the call that hit it", n, err)
				}
				if g, r, _ := block.Stats(); (g-gets)-(r-releases) != 2 {
					t.Errorf("%d arena buffers out when Write returned, want the writer's block and frame scratch: a forked encode outlived the call",
						(g-gets)-(r-releases))
				}
				if !bytes.Equal(got.Bytes(), clean.Bytes()[:before+1]) {
					t.Errorf("the wire holds %d bytes, want frames 0..%d and one byte more (%d)", got.Len(), j-1, before+1)
				}
				if st := w.Stats(); st.Blocks != int64(j) || st.WireBytes != before {
					t.Errorf("accounted %d frames and %d wire bytes, want %d and %d", st.Blocks, st.WireBytes, j, before)
				}
				if _, err := w.Write(src[:1]); !errors.Is(err, faultio.ErrInjected) {
					t.Errorf("second Write returned %v, want the sticky error", err)
				}
				if err := w.Flush(); !errors.Is(err, faultio.ErrInjected) {
					t.Errorf("Flush returned %v, want the sticky error", err)
				}
				if err := w.Close(); !errors.Is(err, faultio.ErrInjected) {
					t.Errorf("Close returned %v, want the sticky error", err)
				}
				if g, r, _ := block.Stats(); g-gets != r-releases {
					t.Errorf("%d arena gets, %d releases after Close", g-gets, r-releases)
				}
			})
		}
	}
}

// idleGoroutines returns the goroutine count once it is down to floor, or
// after a grace period: a forked encode signals its frame a few instructions
// before it exits.
func idleGoroutines(floor int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > floor && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestInlineModesStartNoGoroutine: the inline writer — including
// NewParallelWriter asked for one worker — owns no goroutine. At GOMAXPROCS 1 they never start one; above it a multi-block
// Write forks encodes that it joins before it returns, so none is running
// while the writer is idle.
func TestInlineModesStartNoGoroutine(t *testing.T) {
	src := corpus.Generate(corpus.Moderate, 300<<10, 3)
	before := runtime.NumGoroutine()
	var wire bytes.Buffer
	for _, procs := range []int{1, runtime.GOMAXPROCS(0), sharedInFlight} {
		for _, open := range []func() (*Writer, error){
			func() (*Writer, error) { return NewWriter(&wire, WriterConfig{BlockSize: 16 << 10}) },
			func() (*Writer, error) { return NewParallelWriter(&wire, WriterConfig{BlockSize: 16 << 10}, 1) },
		} {
			prev := runtime.GOMAXPROCS(procs)
			w, err := open()
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				// Count from inside the call: the destination runs on the
				// caller's goroutine, between two encodes.
				w.dst = writerFunc(func(p []byte) (int, error) {
					if n := runtime.NumGoroutine(); n > before {
						t.Errorf("inline writer at GOMAXPROCS 1 mid-Write: %d goroutines, %d before", n, before)
					}
					return wire.Write(p)
				})
			}
			if _, err := w.Write(src); err != nil {
				t.Fatal(err)
			}
			if n := idleGoroutines(before); n > before {
				t.Errorf("inline writer idle at GOMAXPROCS %d: %d goroutines, %d before", procs, n, before)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReaderStartsNoGoroutine: a Reader — from NewReader or from the
// NewParallelReader shim at any worker count — decodes on its caller's
// goroutine and never starts one: not at construction, not while the source
// is being read, not mid-stream, not at EOF and not on an early Close.
func TestReaderStartsNoGoroutine(t *testing.T) {
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: LevelLight, BlockSize: 16 << 10})
	// ReadFrom never forks, so no encode goroutine is left to wind down.
	if _, err := w.ReadFrom(bytes.NewReader(corpus.Generate(corpus.Moderate, 200<<10, 6))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, c := range []struct {
		name string
		open func(io.Reader) (*Reader, error)
	}{
		{"NewReader", NewReader},
		{"NewParallelReader1", func(src io.Reader) (*Reader, error) { return NewParallelReader(src, 1) }},
		{"NewParallelReader8", func(src io.Reader) (*Reader, error) { return NewParallelReader(src, 8) }},
	} {
		for _, early := range []bool{false, true} {
			check := func(at string) {
				if n := runtime.NumGoroutine(); n > before {
					t.Errorf("%s %s: %d goroutines, %d before", c.name, at, n, before)
				}
			}
			src := readerFunc(bytes.NewReader(wire.Bytes()).Read)
			r, err := c.open(readerFunc(func(p []byte) (int, error) {
				check("inside a source read")
				return src.Read(p)
			}))
			if err != nil {
				t.Fatal(err)
			}
			check("after construction")
			if _, err := io.ReadFull(r, make([]byte, 40<<10)); err != nil {
				t.Fatal(err)
			}
			check("mid-stream")
			if early {
				r.Close()
				check("after an early Close")
				continue
			}
			if _, err := io.Copy(io.Discard, r); err != nil {
				t.Fatal(err)
			}
			check("after EOF")
			r.Close()
		}
	}
}

// TestReadFromEOFWithWireError: when the read that fills a block also
// reports io.EOF and cutting that block fails on the wire, ReadFrom returns
// the wire's error — io.Copy into a Writer must not report a clean copy of a
// stream with a hole in it. The wire failing on an earlier block is the same
// error from an earlier call.
func TestReadFromEOFWithWireError(t *testing.T) {
	const blockSize, k = 4096, 3
	src := corpus.Generate(corpus.Moderate, k*blockSize, 5)
	for _, level := range []int{LevelNo, LevelLight} {
		cfg := WriterConfig{Static: true, StaticLevel: level, BlockSize: blockSize}
		var clean bytes.Buffer
		w := mustWriter(t, &clean, cfg)
		if _, err := w.Write(src); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		frames := wireFrames(t, clean.Bytes())
		if len(frames) != k {
			t.Fatalf("%d frames on the clean wire, want %d", len(frames), k)
		}
		// j is the frame the wire fails on; k-1 is the block the EOF read fills.
		for _, j := range []int{0, k - 1} {
			t.Run(fmt.Sprintf("level%d/frame%d", level, j), func(t *testing.T) {
				leakcheck.Check(t)
				blocktest.Track(t)
				var ok int // wire bytes of the frames before j
				for _, h := range frames[:j] {
					ok += headerSize + h.compLen
				}
				var got bytes.Buffer
				dst := writerFunc(func(p []byte) (int, error) {
					if got.Len()+len(p) > ok {
						return 0, errBoom
					}
					return got.Write(p)
				})
				w := mustWriter(t, dst, cfg)
				// DataErrReader hands over the last bytes together with io.EOF.
				if n, err := w.ReadFrom(iotest.DataErrReader(bytes.NewReader(src))); !errors.Is(err, errBoom) {
					t.Errorf("ReadFrom returned %d, %v; want the wire's error", n, err)
				}
				if !bytes.Equal(got.Bytes(), clean.Bytes()[:ok]) {
					t.Errorf("the wire holds %d bytes, want frames 0..%d (%d bytes)", got.Len(), j-1, ok)
				}
				if err := w.Close(); !errors.Is(err, errBoom) {
					t.Errorf("Close returned %v, want the sticky error", err)
				}
			})
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
