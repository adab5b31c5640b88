package tunnel

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// TestDialPeerRetriesUntilTargetAppears: the peer port is dead for the
// first attempts and comes up mid-retry; dialPeer must keep backing off and
// eventually connect.
func TestDialPeerRetriesUntilTargetAppears(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // port now dead (briefly reserved for us)

	up := make(chan net.Listener, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Logf("relisten on %s failed: %v", addr, err)
			up <- nil
			return
		}
		go func() {
			if c, err := ln2.Accept(); err == nil {
				c.Close()
			}
		}()
		up <- ln2
	}()

	var attempts int
	cfg := Config{
		DialRetries: 50,
		DialBackoff: 20 * time.Millisecond,
		Logf:        func(format string, args ...any) { attempts++ },
	}
	conn, err := dialPeer(context.Background(), addr, cfg, newTunnelMetrics(nil))
	ln2 := <-up
	if ln2 == nil {
		t.Skip("could not reclaim the port; environment reassigned it")
	}
	defer ln2.Close()
	if err != nil {
		t.Fatalf("dialPeer never reached the late-coming target: %v", err)
	}
	conn.Close()
	if attempts == 0 {
		t.Fatal("target was up before the first attempt; retry path not exercised")
	}
}

// TestDialPeerFailureWrapsErrDial: exhausted retries surface a typed error.
func TestDialPeerFailureWrapsErrDial(t *testing.T) {
	_, err := dialPeer(context.Background(), "127.0.0.1:1", Config{
		DialRetries: 2,
		DialBackoff: 5 * time.Millisecond,
	}, newTunnelMetrics(nil))
	if !errors.Is(err, ErrDial) {
		t.Fatalf("got %v, want error wrapping ErrDial", err)
	}
}

// TestDialPeerHonorsContextCancel: a cancelled context aborts the retry
// loop promptly instead of sleeping out the backoff schedule.
func TestDialPeerHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := dialPeer(ctx, "127.0.0.1:1", Config{
		DialRetries: 1000,
		DialBackoff: 30 * time.Second, // would sleep ~forever without ctx
	}, newTunnelMetrics(nil))
	if !errors.Is(err, ErrDial) {
		t.Fatalf("got %v, want error wrapping ErrDial", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled dial took %v", elapsed)
	}
}

// TestBackoffJitterSpreads: jitter must actually vary within [0.5, 1.5)
// of the base so synchronized clients do not retry in lockstep.
func TestBackoffJitterSpreads(t *testing.T) {
	base := time.Second
	lo, hi := base, base
	for i := 0; i < 200; i++ {
		j := jitter(base)
		if j < base/2 || j >= base*3/2 {
			t.Fatalf("jitter %v outside [%v, %v)", j, base/2, base*3/2)
		}
		if j < lo {
			lo = j
		}
		if j > hi {
			hi = j
		}
	}
	if hi-lo < base/4 {
		t.Fatalf("jitter spread only %v across 200 draws", hi-lo)
	}
}
