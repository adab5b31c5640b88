package loadgen_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"adaptio/internal/corpus"
	"adaptio/internal/faultio/leakcheck"
	"adaptio/internal/loadgen"
	"adaptio/internal/obs"
	"adaptio/internal/tunnel"
)

// TestPlanDeterminism: equal (seed, worker) yield identical operation
// schedules; different seeds or workers diverge.
func TestPlanDeterminism(t *testing.T) {
	cfg := loadgen.Config{Seed: 42, MinPayload: 1 << 10, MaxPayload: 256 << 10, MaxThink: 5 * time.Millisecond}
	type op struct {
		kind  corpus.Kind
		size  int
		think time.Duration
	}
	sample := func(c loadgen.Config, w int) []op {
		p := loadgen.NewPlan(c, w)
		ops := make([]op, 64)
		for i := range ops {
			ops[i].kind, ops[i].size, ops[i].think = p.Next()
		}
		return ops
	}
	a, b := sample(cfg, 3), sample(cfg, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between identical plans: %+v vs %+v", i, a[i], b[i])
		}
	}
	other := sample(cfg, 4)
	same := 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("worker 3 and 4 produced identical schedules")
	}
	cfg2 := cfg
	cfg2.Seed = 43
	reseeded := sample(cfg2, 3)
	same = 0
	for i := range a {
		if a[i] == reseeded[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestPlanRespectsBounds: sizes and think times stay inside the configured
// distribution bounds, and all mix kinds eventually appear.
func TestPlanRespectsBounds(t *testing.T) {
	cfg := loadgen.Config{Seed: 7, MinPayload: 2 << 10, MaxPayload: 128 << 10, MinThink: time.Millisecond, MaxThink: 4 * time.Millisecond}
	p := loadgen.NewPlan(cfg, 0)
	seen := map[corpus.Kind]bool{}
	for i := 0; i < 512; i++ {
		kind, size, think := p.Next()
		if size < cfg.MinPayload || size > cfg.MaxPayload {
			t.Fatalf("size %d outside [%d, %d]", size, cfg.MinPayload, cfg.MaxPayload)
		}
		if think < cfg.MinThink || think > cfg.MaxThink {
			t.Fatalf("think %v outside [%v, %v]", think, cfg.MinThink, cfg.MaxThink)
		}
		seen[kind] = true
	}
	for _, k := range corpus.Kinds() {
		if !seen[k] {
			t.Fatalf("kind %v never drawn in 512 ops", k)
		}
	}
}

// startEcho runs a plain TCP echo sink that holds each connection for delay
// before echoing.
func startEcho(t *testing.T, delay time.Duration) string {
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
				time.Sleep(delay)
				io.Copy(conn, conn)
				if tc, ok := conn.(*net.TCPConn); ok {
					tc.CloseWrite()
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestSoakShort is the PR-sized variant of the nightly soak (cmd/acload):
// many more concurrent clients than the tunnel admits, driven through an
// entry/exit pair with a bounded pool. Asserts the acceptance criteria at
// reduced scale: goroutine count bounded by O(MaxConns), shed-vs-accepted
// visible in the obs snapshot, zero leaked goroutines after drain.
func TestSoakShort(t *testing.T) {
	leakcheck.Check(t)
	const (
		workers  = 96
		maxConns = 24
		queue    = 24
	)
	echo := startEcho(t, 0)
	reg := obs.NewRegistry()
	tcfg := tunnel.Config{
		Static: true, StaticLevel: 1,
		MaxConns:      maxConns,
		AcceptQueue:   queue,
		ShutdownGrace: 2 * time.Second,
		Obs:           reg.Scope("tunnel"),
	}
	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", echo, tunnel.Config{Static: true, StaticLevel: 1, ShutdownGrace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { exit.Close() })
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { entry.Close() })

	baseline := runtime.NumGoroutine()
	report, err := loadgen.Run(context.Background(), loadgen.Config{
		Addr:       entry.Addr().String(),
		Conns:      workers,
		Duration:   1500 * time.Millisecond,
		Seed:       2011,
		MinPayload: 1 << 10,
		MaxPayload: 16 << 10,
		Verify:     true,
		Obs:        reg.Scope("loadgen"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", report)

	if report.Completed == 0 {
		t.Fatal("soak completed zero cycles")
	}
	if report.Failed > report.Completed/10 {
		t.Fatalf("failed cycles %d out of %d completed: broken transfers under load", report.Failed, report.Completed)
	}

	// Goroutine bound: each served conn costs a fixed handful on each
	// endpoint, each client worker a couple; growth must be O(workers +
	// MaxConns + queue), never O(arrival rate).
	bound := baseline + workers*3 + (maxConns+queue)*8*2 + 32
	if report.PeakGoroutines > bound {
		t.Fatalf("peak goroutines %d exceeds bound %d (baseline %d)", report.PeakGoroutines, bound, baseline)
	}

	// The tunnel's admission accounting must be visible in the snapshot.
	snap := reg.Snapshot()
	for _, name := range []string{"tunnel.conns.accepted", "tunnel.conns.shed", "tunnel.conns.peak", "loadgen.cycles.completed"} {
		if !bytes.Contains(snap, []byte(`"`+name+`"`)) {
			t.Fatalf("obs snapshot missing %q", name)
		}
	}
	peak, _ := reg.Get("tunnel.conns.peak").(*obs.Gauge)
	if peak.Value() > maxConns {
		t.Fatalf("tunnel served %d concurrent conns, MaxConns=%d", peak.Value(), maxConns)
	}
	accepted, _ := reg.Get("tunnel.conns.accepted").(*obs.Counter)
	shed, _ := reg.Get("tunnel.conns.shed").(*obs.Counter)
	t.Logf("tunnel: accepted=%d shed=%d peak=%d", accepted.Value(), shed.Value(), peak.Value())
	if accepted.Value() == 0 {
		t.Fatal("tunnel accepted nothing")
	}
	// 96 workers hammering a 24+24 pool with zero think time must shed —
	// and the client side must have observed at least part of it.
	if shed.Value() == 0 && report.Shed == 0 && report.DialErrs == 0 {
		t.Fatal("overload never shed: admission control inert")
	}
	// Endpoint drain + leakcheck (via t.Cleanup) then prove zero leaks.
}

// TestReportMaxIsExact: the reported max latency is the slowest cycle's own,
// not the upper bound of the histogram bucket it fell in. One cycle held
// ~3 ms by the echo is the run's max and its mean.
func TestReportMaxIsExact(t *testing.T) {
	report, err := loadgen.Run(context.Background(), loadgen.Config{
		Addr: startEcho(t, 3*time.Millisecond),
		Ops:  1,
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 1 {
		t.Fatalf("completed %d cycles, want 1: %s", report.Completed, report)
	}
	if report.LatencyMsMax != report.LatencyMsMean || report.LatencyMsMax < 3 {
		t.Fatalf("max latency %.3f ms, want the one cycle's %.3f ms", report.LatencyMsMax, report.LatencyMsMean)
	}
}
