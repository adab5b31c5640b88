package tunnel_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/faultio/leakcheck"
	"adaptio/internal/tunnel"
)

// startEcho runs a TCP echo server and returns its address.
func startEcho(t testing.TB) string {
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

// startTunnel builds echo <- exit <- entry and returns the entry address
// and a stats collector.
func startTunnel(t *testing.T, cfg tunnel.Config) (string, *statsCollector) {
	t.Helper()
	collector := &statsCollector{}
	cfg.OnDone = collector.add
	cfg.Logf = t.Logf

	echo := startEcho(t)
	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", echo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { exit.Close() })
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { entry.Close() })
	return entry.Addr().String(), collector
}

type statsCollector struct {
	mu    sync.Mutex
	stats []tunnel.ConnStats
}

func (c *statsCollector) add(s tunnel.ConnStats) {
	c.mu.Lock()
	c.stats = append(c.stats, s)
	c.mu.Unlock()
}

func (c *statsCollector) snapshot() []tunnel.ConnStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]tunnel.ConnStats(nil), c.stats...)
}

func TestTunnelEchoRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	blocktest.Track(t) // relay copy buffers and stream arenas must be released
	addr, collector := startTunnel(t, tunnel.Config{Window: 30 * time.Millisecond})
	payload := corpus.Generate(corpus.High, 4<<20, 1)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var writeErr error
	go func() {
		if _, err := conn.Write(payload); err != nil {
			writeErr = err
		}
		conn.(*net.TCPConn).CloseWrite()
	}()
	echoed, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read echo: %v", err)
	}
	if writeErr != nil {
		t.Fatalf("write: %v", writeErr)
	}
	if !bytes.Equal(echoed, payload) {
		t.Fatalf("echo mismatch: got %d bytes, want %d", len(echoed), len(payload))
	}

	// Both directions must have produced sender stats covering the
	// payload volume.
	deadline := time.After(5 * time.Second)
	for {
		stats := collector.snapshot()
		if len(stats) >= 2 {
			var dirs []string
			for _, s := range stats {
				if s.Stats.AppBytes != int64(len(payload)) {
					t.Fatalf("%s carried %d app bytes, want %d", s.Direction, s.Stats.AppBytes, len(payload))
				}
				dirs = append(dirs, s.Direction)
			}
			t.Logf("directions: %v", dirs)
			return
		}
		select {
		case <-deadline:
			t.Fatalf("only %d direction stats arrived", len(stats))
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestTunnelStaticCompressionShrinksWire(t *testing.T) {
	leakcheck.Check(t)
	addr, collector := startTunnel(t, tunnel.Config{Static: true, StaticLevel: 1})
	payload := corpus.Generate(corpus.High, 2<<20, 2)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		conn.Write(payload)
		conn.(*net.TCPConn).CloseWrite()
	}()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		stats := collector.snapshot()
		if len(stats) >= 2 {
			for _, s := range stats {
				if ratio := float64(s.Stats.WireBytes) / float64(s.Stats.AppBytes); ratio > 0.5 {
					t.Fatalf("%s: wire ratio %.2f on HIGH data at LIGHT", s.Direction, ratio)
				}
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("stats never arrived")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestTunnelDirectionsAdaptIndependently sends highly compressible data one
// way and incompressible data the other through a single connection: each
// direction has its own decision model, so the wire ratios must diverge.
func TestTunnelDirectionsAdaptIndependently(t *testing.T) {
	leakcheck.Check(t)
	collector := &statsCollector{}
	cfg := tunnel.Config{Static: true, StaticLevel: 1, OnDone: collector.add, Logf: t.Logf}

	// The "service": reads everything, then responds with LOW data.
	lowData := corpus.Generate(corpus.Low, 2<<20, 7)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn)
		conn.Write(lowData)
		conn.(*net.TCPConn).CloseWrite()
	}()

	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer exit.Close()
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()

	conn, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	highData := corpus.Generate(corpus.High, 2<<20, 7)
	go func() {
		conn.Write(highData)
		conn.(*net.TCPConn).CloseWrite()
	}()
	echoed, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echoed, lowData) {
		t.Fatalf("response corrupted: %d bytes, want %d", len(echoed), len(lowData))
	}

	deadline := time.After(5 * time.Second)
	for {
		stats := collector.snapshot()
		if len(stats) >= 2 {
			ratios := map[string]float64{}
			for _, s := range stats {
				if s.Stats.AppBytes > 0 {
					ratios[s.Direction] = float64(s.Stats.WireBytes) / float64(s.Stats.AppBytes)
				}
			}
			// HIGH data travels entry->exit; LOW data exit->entry.
			if ratios["entry->exit"] > 0.5 {
				t.Errorf("compressible direction ratio %.2f", ratios["entry->exit"])
			}
			if ratios["exit->entry"] < 0.8 {
				t.Errorf("incompressible direction ratio %.2f suspiciously low", ratios["exit->entry"])
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("stats incomplete: %d", len(stats))
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestTunnelManyConcurrentConnections(t *testing.T) {
	leakcheck.Check(t)
	addr, _ := startTunnel(t, tunnel.Config{Window: 20 * time.Millisecond})
	const conns = 16
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := corpus.Generate(corpus.Kind(i%3), 200<<10, uint64(i))
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			go func() {
				conn.Write(payload)
				conn.(*net.TCPConn).CloseWrite()
			}()
			echoed, err := io.ReadAll(conn)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(echoed, payload) {
				errs <- io.ErrUnexpectedEOF
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent connection failed: %v", err)
	}
}

func TestTunnelEndpointClose(t *testing.T) {
	leakcheck.Check(t)
	echo := startEcho(t)
	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", echo, tunnel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := exit.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Dialing a closed endpoint fails quickly.
	if conn, err := net.DialTimeout("tcp", exit.Addr().String(), 200*time.Millisecond); err == nil {
		conn.Close()
		t.Fatal("closed endpoint still accepting")
	}
}

func TestTunnelExitDialFailure(t *testing.T) {
	leakcheck.Check(t)
	// Exit points at a dead target: client connections must be closed,
	// not hang.
	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", "127.0.0.1:1", tunnel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer exit.Close()
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), tunnel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()
	conn, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected connection teardown")
	}
}

// TestListenRejectsConfigNoRelayCouldRun: a level choice the stream writer
// would refuse is refused when the endpoint starts, with the writer's own
// message, not discovered by the first connection; a pinned level next to a
// policy is a contradiction, not a precedence rule; and every count and
// duration has zero as its default or off, positive values as its setting,
// and no third class: a negative one is refused, not read as off.
func TestListenRejectsConfigNoRelayCouldRun(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg     tunnel.Config
		wantErr string
	}{
		"static level off the ladder": {tunnel.Config{Static: true, StaticLevel: 9}, "starting level 9 outside ladder"},
		"negative static level":       {tunnel.Config{Static: true, StaticLevel: -1}, "starting level -1 outside ladder"},
		"negative window":             {tunnel.Config{Window: -time.Second}, "negative window"},
		"static with a policy": {tunnel.Config{Static: true, StaticLevel: 1, Policy: func() core.Policy { return core.Static(2) }},
			"leaves nothing to decide"},
		"negative FlushInterval": {tunnel.Config{FlushInterval: -time.Millisecond}, "negative FlushInterval -1ms"},
		"negative IdleTimeout":   {tunnel.Config{IdleTimeout: -time.Second}, "negative IdleTimeout -1s"},
		"negative ShutdownGrace": {tunnel.Config{ShutdownGrace: -time.Second}, "negative ShutdownGrace -1s"},
		"negative DialBackoff":   {tunnel.Config{DialBackoff: -time.Millisecond}, "negative DialBackoff -1ms"},
		"negative DialRetries":   {tunnel.Config{DialRetries: -1}, "negative DialRetries -1"},
		"negative MaxConns":      {tunnel.Config{MaxConns: -1}, "negative MaxConns -1"},
		"negative AcceptQueue":   {tunnel.Config{MaxConns: 4, AcceptQueue: -1}, "negative AcceptQueue -1"},
	} {
		t.Run(name, func(t *testing.T) {
			for _, listen := range []func(context.Context, string, string, tunnel.Config) (*tunnel.Endpoint, error){
				tunnel.ListenEntry, tunnel.ListenExit,
			} {
				e, err := listen(context.Background(), "127.0.0.1:0", "127.0.0.1:1", tc.cfg)
				if err == nil {
					e.Close()
				}
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("listen error = %v, want one containing %q", err, tc.wantErr)
				}
			}
		})
	}
}
