package stream

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"adaptio/internal/core"
	"adaptio/internal/obs"
	"adaptio/internal/vclock"
)

// driveWindow writes exactly n bytes into w as one decision window: n-1
// bytes, a one-second clock step, then the final byte whose Write call
// closes the window, so the observed rate is exactly n bytes/second.
func driveWindow(t *testing.T, w *Writer, clk *vclock.Manual, data []byte, n int) {
	t.Helper()
	if _, err := w.Write(data[:n-1]); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := w.Write(data[:1]); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionLogShowsBackoffAfterRevert closes the latent visibility gap
// the controller used to have: after a degradation-triggered revert, nothing
// externally observable proved the probed level's backoff was reset. The
// decision event log now records every non-hold transition with the backoff
// state, so the whole paper trail — probe, reward (backoff grows), the
// backoff-suppressed silent window, and the revert (backoff reset) — is
// asserted here window by window.
func TestDecisionLogShowsBackoffAfterRevert(t *testing.T) {
	reg := obs.NewRegistry()
	clk := vclock.NewManual()
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{
		Clock:  clk,
		Window: time.Second,
		Obs:    reg.Scope("stream").Scope("writer"),
	})
	data := make([]byte, 2000)

	// Window 1: 1000 B/s. First observation primes pdr, so the rate is
	// "unchanged"; backoff 0 has expired, so the controller probes 0 -> 1.
	driveWindow(t, w, clk, data, 1000)
	// Window 2: 2000 B/s, improved: reward, bck[1] becomes 1.
	driveWindow(t, w, clk, data, 2000)
	// Window 3: 2000 B/s, stable, but c=1 < 2^bck[1]=2: hold. The backoff
	// visibly suppresses the probe — no event may be logged.
	driveWindow(t, w, clk, data, 2000)
	// Window 4: 2000 B/s, stable, c=2: backoff expired, probe 1 -> 2.
	driveWindow(t, w, clk, data, 2000)
	// Window 5: 1000 B/s, degraded: revert 2 -> 1 and reset bck[2].
	driveWindow(t, w, clk, data, 1000)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	logm, ok := reg.Get("stream.writer.decisions").(*obs.EventLog)
	if !ok {
		t.Fatal("decision event log not registered")
	}
	events := logm.Events()
	wantKinds := []string{"probe", "reward", "probe", "revert"}
	if len(events) != len(wantKinds) {
		t.Fatalf("got %d decision events %v, want %d (holds must not be logged)",
			len(events), events, len(wantKinds))
	}
	for i, want := range wantKinds {
		if events[i].Kind != want {
			t.Fatalf("event %d kind = %q, want %q (events: %v)", i, events[i].Kind, want, events)
		}
	}
	// Window 3's hold left no event but still counts zero towards Total:
	// exactly the four transitions were ever appended.
	if logm.Total() != 4 {
		t.Fatalf("event log total = %d, want 4", logm.Total())
	}
	// The reward recorded the grown backoff, the revert the reset one.
	if !strings.Contains(events[1].Detail, "bck[1]=1") {
		t.Fatalf("reward event does not show grown backoff: %q", events[1].Detail)
	}
	if !strings.Contains(events[3].Detail, "level 2 -> 1") || !strings.Contains(events[3].Detail, "bck[2]=0") {
		t.Fatalf("revert event does not show reverted level and reset backoff: %q", events[3].Detail)
	}
	// The live controller state agrees with the event trail.
	if got := w.policy.(*core.AlgorithmOne).Backoff(2); got != 0 {
		t.Fatalf("decider bck[2] = %d after revert, want 0", got)
	}
	if got := w.policy.Level(); got != 1 {
		t.Fatalf("decider level = %d after revert, want 1", got)
	}
}

// TestWriterObsCounters checks the writer's byte accounting through the obs
// registry: app/wire totals, per-level label split, the derived ratio, and
// the window-rate histogram.
func TestWriterObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	clk := vclock.NewManual()
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{
		Clock:       clk,
		Window:      time.Second,
		Static:      true,
		StaticLevel: LevelLight,
		BlockSize:   4 << 10,
		Obs:         reg.Scope("stream").Scope("writer"),
	})
	payload := bytes.Repeat([]byte("abcdefgh"), 4<<10) // 32 KiB, compressible
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	counter := func(name string) int64 {
		c, ok := reg.Get(name).(*obs.Counter)
		if !ok {
			t.Fatalf("counter %q missing (have %v)", name, reg.Names())
		}
		return c.Value()
	}
	st := w.Stats()
	if got := counter("stream.writer.app_bytes"); got != st.AppBytes || got != int64(len(payload)) {
		t.Fatalf("app_bytes = %d, stats %d, want %d", got, st.AppBytes, len(payload))
	}
	if got := counter("stream.writer.wire_bytes"); got != st.WireBytes {
		t.Fatalf("wire_bytes = %d, stats %d", got, st.WireBytes)
	}
	if got := counter("stream.writer.blocks"); got != int64(len(payload)/(4<<10)) {
		t.Fatalf("blocks = %d, want %d", got, len(payload)/(4<<10))
	}
	// Static LIGHT: every byte must be accounted to level 1's labels.
	if got := counter("stream.writer.app_bytes{level=1}"); got != int64(len(payload)) {
		t.Fatalf("level-1 app_bytes = %d, want %d", got, len(payload))
	}
	if got := counter("stream.writer.wire_bytes{level=1}"); got != st.WireBytes {
		t.Fatalf("level-1 wire_bytes = %d, want all %d", got, st.WireBytes)
	}
	ratio, ok := reg.Get("stream.writer.ratio").(*obs.FloatFuncMetric)
	if !ok {
		t.Fatal("ratio metric missing")
	}
	want := float64(st.WireBytes) / float64(st.AppBytes)
	if got := ratio.Value(); got != want {
		t.Fatalf("ratio = %v, want %v", got, want)
	}
	if want >= 1 {
		t.Fatalf("compressible payload did not compress (ratio %v); accounting suspect", want)
	}
	hist, ok := reg.Get("stream.writer.window_rate").(*obs.Histogram)
	if !ok {
		t.Fatal("window_rate histogram missing")
	}
	if hist.Count() == 0 {
		t.Fatal("window_rate saw no windows")
	}

	// The stream must still decode: instrumentation cannot perturb data.
	out, err := io.ReadAll(mustReader(t, &wire))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, payload) {
		t.Fatal("instrumented stream round trip mismatch")
	}
}
