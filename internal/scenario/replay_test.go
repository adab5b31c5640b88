package scenario

import (
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"adaptio/internal/loadgen"
	"adaptio/internal/trace"
)

// startEchoSink runs a throwaway in-process TCP echo service.
func startEchoSink(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
				if tc, ok := conn.(*net.TCPConn); ok {
					tc.CloseWrite()
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestTraceRecordReplayRoundTrip closes the record/replay loop end to end:
// a real seeded loadgen run against a live TCP echo sink records its
// per-window completed bytes (the cmd/acload -trace-out path), the trace
// file is replayed through the fleet simulator as the demand curve, and the
// simulated fleet must reproduce the recorded per-window byte counts.
//
// The tolerance is tight and structural, not statistical: replay splits each
// window's bytes evenly over the fleet and every stream truncates to whole
// bytes, so the only admissible error is one byte per stream per window
// (plus float round-off). The scenario is provisioned so nothing else can
// bind — 32 streams at the ~146 MB/s no-compression pipeline ceiling and a
// wide NIC dwarf anything a loopback load run can record in a window.
func TestTraceRecordReplayRoundTrip(t *testing.T) {
	const (
		windowSeconds = 0.25
		replayStreams = 32
	)

	rec := trace.NewRecorder(windowSeconds)
	report, err := loadgen.Run(context.Background(), loadgen.Config{
		Addr:       startEchoSink(t),
		Conns:      8,
		Duration:   900 * time.Millisecond,
		Seed:       2011,
		MinPayload: 8 << 10,
		MaxPayload: 64 << 10,
		Verify:     true,
		Recorder:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed == 0 {
		t.Fatal("load run completed zero cycles; nothing to record")
	}

	wt := rec.Snapshot()
	if len(wt.Windows) == 0 {
		t.Fatal("recorder captured no windows")
	}
	tracePath := filepath.Join(t.TempDir(), "run.trace.json")
	if err := wt.Save(tracePath); err != nil {
		t.Fatal(err)
	}

	sc := &Scenario{
		Name:    "replay-roundtrip",
		Fleet:   []Group{{Name: "replay", Count: replayStreams}},
		NICMBps: 50_000,
		Trace:   tracePath,
		Seed:    2011,
	}
	res, err := Run(sc, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != len(wt.Windows) {
		t.Fatalf("replay ran %d windows, trace has %d", res.Windows, len(wt.Windows))
	}
	if res.WindowSeconds != windowSeconds {
		t.Fatalf("replay window %v s, trace recorded %v s", res.WindowSeconds, windowSeconds)
	}

	v := res.Variant("static-no")
	if v == nil {
		t.Fatal("static-no variant missing")
	}
	const perWindowSlack = int64(replayStreams) + 2 // per-stream byte truncation
	var totalDiff int64
	for w, rec := range wt.Windows {
		got := v.WindowAppBytes[w]
		diff := rec.AppBytes - got
		if diff < 0 {
			diff = -diff
		}
		totalDiff += diff
		if diff > perWindowSlack {
			t.Errorf("window %d: replayed %d bytes vs recorded %d (diff %d > slack %d)",
				w, got, rec.AppBytes, diff, perWindowSlack)
		}
	}
	if maxTotal := perWindowSlack * int64(res.Windows); totalDiff > maxTotal {
		t.Errorf("total replay drift %d bytes exceeds %d (trace total %d)",
			totalDiff, maxTotal, wt.TotalAppBytes())
	}
	t.Logf("recorded %d windows / %d bytes; replay drift %d bytes across %d streams",
		len(wt.Windows), wt.TotalAppBytes(), totalDiff, replayStreams)
}

// TestReplayMissingTrace keeps trace errors typed and non-panicking.
func TestReplayMissingTrace(t *testing.T) {
	sc := &Scenario{
		Name:  "replay-missing",
		Fleet: []Group{{Count: 1}},
		Trace: filepath.Join(t.TempDir(), "does-not-exist.json"),
	}
	if _, err := Run(sc, Options{}); err == nil {
		t.Fatal("Run succeeded with a missing trace file")
	}
}

// TestReplayRefusals: a replay looks the recorded bytes up by window
// number, so a window length other than the trace's would stretch or
// squeeze the recording, and a trace's length stands in for windows, so it
// is held to the same MaxWindows bound.
func TestReplayRefusals(t *testing.T) {
	save := func(windows int) string {
		path := filepath.Join(t.TempDir(), "run.trace.json")
		wt := &trace.WindowedTrace{Version: trace.WindowedTraceVersion, WindowSeconds: 1, Windows: make([]trace.WindowRecord, windows)}
		for i := range wt.Windows {
			wt.Windows[i].AppBytes = 4e6
		}
		if err := wt.Save(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		name, field   string
		windows       int
		windowSeconds float64
	}{
		{"window length differs", "window_seconds", 10, 2},
		{"trace over MaxWindows", "trace", MaxWindows + 1000, 0},
	} {
		sc := &Scenario{Name: "replay", Fleet: []Group{{Count: 1}}, Trace: save(tc.windows), WindowSeconds: tc.windowSeconds}
		_, err := Run(sc, Options{})
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%s: Run returned %v, want a FieldError on %s", tc.name, err, tc.field)
		}
	}
}
