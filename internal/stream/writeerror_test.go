package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/corpus"
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
				w := mustWriter(t, dst, WriterConfig{
					Static: true, StaticLevel: LevelLight,
					Parallelism: parallelism, BlockSize: 16 << 10,
				})
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

// TestInlineModesStartNoGoroutine: the inline writer and reader — including
// NewParallelWriter and NewParallelReader asked for one worker — do all
// their work on the caller's goroutine.
func TestInlineModesStartNoGoroutine(t *testing.T) {
	src := corpus.Generate(corpus.Moderate, 300<<10, 3)
	before := runtime.NumGoroutine()
	var wire bytes.Buffer
	for _, open := range []func() (*Writer, error){
		func() (*Writer, error) { return NewWriter(&wire, WriterConfig{Parallelism: 1}) },
		func() (*Writer, error) { return NewParallelWriter(&wire, WriterConfig{}, 1) },
	} {
		w, err := open()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(src); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("inline writer running: %d goroutines, %d before", n, before)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewParallelReader(&wire, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(r, make([]byte, len(src))); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("inline reader running: %d goroutines, %d before", n, before)
	}
	r.Close()
}
