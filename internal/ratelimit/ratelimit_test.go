package ratelimit

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/faultio"
	"adaptio/internal/stream"
)

func TestValidation(t *testing.T) {
	if _, err := NewWriter(nil, 100, 0); err == nil {
		t.Error("nil writer accepted")
	}
	if _, err := NewWriter(io.Discard, 0, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewWriter(io.Discard, -5, 0); err == nil {
		t.Error("negative rate accepted")
	}
}

// TestNonFiniteRateRefused: a NaN rate passed the old "<= 0" check and an
// infinite one shapes nothing, so the constructor refuses both.
func TestNonFiniteRateRefused(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewWriter(io.Discard, rate, 0); err == nil {
			t.Errorf("NewWriter accepted rate %v", rate)
		}
	}
}

// fakeTime lets the token bucket run on virtual time so the test is exact
// and instant.
type fakeTime struct {
	now     time.Time
	slept   time.Duration
	history []time.Duration
}

func (f *fakeTime) Now() time.Time { return f.now }

func (f *fakeTime) Sleep(d time.Duration) {
	f.slept += d
	f.history = append(f.history, d)
	f.now = f.now.Add(d)
}

func newVirtual(t *testing.T, dst io.Writer, rate float64, burst int) (*Writer, *fakeTime) {
	t.Helper()
	w, err := NewWriter(dst, rate, burst)
	if err != nil {
		t.Fatal(err)
	}
	ft := &fakeTime{now: time.Unix(1e9, 0)}
	w.now = ft.Now
	w.sleep = ft.Sleep
	return w, ft
}

func TestRateEnforcedVirtualTime(t *testing.T) {
	var buf bytes.Buffer
	// 1 MB/s, small burst.
	w, ft := newVirtual(t, &buf, 1e6, 64<<10)
	data := make([]byte, 10<<20) // 10 MB
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	// 10 MB at 1 MB/s should take ~10 s of (virtual) sleeping, minus the
	// initial burst allowance.
	got := ft.slept.Seconds()
	if got < 9 || got > 10.5 {
		t.Fatalf("slept %.2f s for 10 MB at 1 MB/s", got)
	}
	if buf.Len() != len(data) {
		t.Fatalf("wrote %d of %d", buf.Len(), len(data))
	}
}

// TestOversleepDoesNotLowerRate: a sleep that always overshoots (as real
// timers do) has earned tokens for the whole time slept, so the delivered
// rate must still be the configured one. Chunks equal the burst, the shape
// the stream layer's frames take through a 64 KB bucket.
func TestOversleepDoesNotLowerRate(t *testing.T) {
	const rate, chunk, chunks = 1e6, 64 << 10, 200
	w, ft := newVirtual(t, io.Discard, rate, chunk)
	w.sleep = func(d time.Duration) { ft.Sleep(d + d/2) }
	start := ft.now
	for i := 0; i < chunks; i++ {
		if _, err := w.Write(make([]byte, chunk)); err != nil {
			t.Fatal(err)
		}
	}
	got := float64(chunks*chunk) / (rate * ft.now.Sub(start).Seconds())
	if got < 0.99 || got > 1.01 {
		t.Fatalf("delivered %.3f of the configured rate with 50%% oversleep", got)
	}
}

func TestBurstPassesWithoutSleep(t *testing.T) {
	var buf bytes.Buffer
	w, ft := newVirtual(t, &buf, 1e6, 1<<20)
	if _, err := w.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if ft.slept != 0 {
		t.Fatalf("initial burst slept %v", ft.slept)
	}
}

// TestPartialWritesKeepTheStream: a transport that takes part of a write with
// a nil error (faultio's PartialWrite) must still get every byte once and in
// order, so a stream.Writer over the limiter round-trips.
func TestPartialWritesKeepTheStream(t *testing.T) {
	src := corpus.Generate(corpus.Moderate, 1<<20, 9)
	var wire bytes.Buffer
	rl, _ := newVirtual(t, faultio.NewWriter(&wire, faultio.Config{Seed: 5, PartialWrite: 0.7}), 1e9, 16<<10)
	w, err := stream.NewWriter(rl, stream.WriterConfig{Decider: core.Static(stream.LevelLight)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := stream.NewReader(&wire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("read %d of %d bytes back, equal %v, err %v", len(got), len(src), bytes.Equal(got, src), err)
	}
}

type errAfter struct{ n int }

func (e *errAfter) Write(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, errors.New("broken")
	}
	e.n -= len(p)
	return len(p), nil
}

func TestUnderlyingErrorSurfaces(t *testing.T) {
	w, _ := newVirtual(t, &errAfter{n: 100}, 1e9, 64)
	if _, err := w.Write(make([]byte, 1024)); err == nil {
		t.Fatal("underlying error swallowed")
	}
}

func TestRealTimeSmoke(t *testing.T) {
	// A tiny real-time sanity check: 200 KB at 2 MB/s takes ~100 ms.
	w, err := NewWriter(io.Discard, 2e6, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := w.Write(make([]byte, 200<<10)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 50*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("200 KB at 2 MB/s took %v", elapsed)
	}
}
