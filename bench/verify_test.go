package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// shortEnv is a run long enough to move a few hundred ops and short enough
// for the unit tests.
func shortEnv() *env {
	return &env{run: 250 * time.Millisecond, warm: 50 * time.Millisecond, workers: 2, static: -1}
}

// TestWorkloadsVerifyCleanly runs every workload briefly: ops go through,
// every byte verifies, nothing is left in the arena.
func TestWorkloadsVerifyCleanly(t *testing.T) {
	for _, w := range workloads {
		m, err := measure(w, 1, shortEnv(), 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if m.failed != 0 || len(m.errs) != 0 {
			t.Errorf("%s: %d ops failed: %v", w.name, m.failed, m.errs)
		}
		if len(m.ops) == 0 {
			t.Errorf("%s: no op completed inside the timed run", w.name)
		}
		r, _, err := m.endToEndReadings()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, d := range endToEnd {
			if r[d.Name] <= 0 {
				t.Errorf("%s: %s = %v, want a positive reading", w.name, d.Name, r[d.Name])
			}
		}
	}
}

// flipWriter flips one bit of the byte at offset at of what passes through.
type flipWriter struct {
	w    io.Writer
	at   int
	seen int
}

func (f *flipWriter) Write(p []byte) (int, error) {
	if i := f.at - f.seen; i >= 0 && i < len(p) {
		p = append([]byte(nil), p...)
		p[i] ^= 0x01
	}
	f.seen += len(p)
	return f.w.Write(p)
}

// TestCorruptedWireFailsTheRun flips one wire byte between the stream
// writer and the loopback connection: the run must report failed ops and
// must not be correct.
func TestCorruptedWireFailsTheRun(t *testing.T) {
	e := shortEnv()
	e.wrapWire = func(w io.Writer) io.Writer { return &flipWriter{w: w, at: 1 << 20} }
	m, err := measure(workloadByName("scarce-text"), 1, e, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	verdict(&res, m)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a flipped wire byte went unnoticed: %+v, errors %v", res, m.errs)
	}
	found := false
	for _, err := range m.errs {
		found = found || strings.Contains(err.Error(), "receiver")
	}
	if !found {
		t.Errorf("no receiver-side failure among %v", m.errs)
	}
}

// TestTracedRunAccountsForTheWriter checks the ledger's accounting on a
// paced run: the serial writer is either compressing or waiting for the
// wire, and the pacer never delivers more than its schedule.
func TestTracedRunAccountsForTheWriter(t *testing.T) {
	e := &env{run: time.Second, warm: 100 * time.Millisecond, workers: 2, static: -1, rec: newRecorder()}
	w := workloadByName("scarce-jpeg")
	m, err := measure(w, 1, e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.errs) != 0 {
		t.Fatalf("run failed: %v", m.errs)
	}
	r := m.layerReadings(m)
	// A span counts where it starts, so the last one may reach past the edge.
	if got := r["stream.writer.busy_share"] + r["stream.writer.wire_wait_share"]; got < 0.95 || got > 1.05 {
		t.Errorf("writer busy + wire wait = %.3f of the timed run, want 0.95 to 1.05", got)
	}
	if got := r["wire.utilisation"]; got <= 0 || got > 1.02 {
		t.Errorf("wire.utilisation = %.3f, want within (0, 1.02]", got)
	}
	if r["core.windows"] < 5 {
		t.Errorf("core.windows = %v over a 1 s run of 100 ms windows", r["core.windows"])
	}
}
