package tunnel

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"adaptio/internal/stream"
)

// scriptedConn is one side of a relayed connection reduced to what the relay
// does with it. Read blocks until wait is closed, yields data once, then
// closes failed and returns err; Write swallows the bytes or fails with
// writeErr.
type scriptedConn struct {
	net.Conn // nil: the relay needs only the methods below

	wait     <-chan struct{}
	data     []byte
	err      error
	failed   chan struct{}
	writeErr error
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	if c.wait != nil {
		<-c.wait
		// The other side's error was handed out; it still has to travel up
		// to relay(). Give it that head start so the two arrive in the
		// scripted order.
		time.Sleep(20 * time.Millisecond)
		c.wait = nil
	}
	if len(c.data) > 0 {
		n := copy(p, c.data)
		c.data = c.data[n:]
		return n, nil
	}
	if c.failed != nil {
		close(c.failed)
		c.failed = nil
	}
	return 0, c.err
}

func (c *scriptedConn) Write(p []byte) (int, error) {
	if c.writeErr != nil {
		return 0, c.writeErr
	}
	return len(p), nil
}

func (c *scriptedConn) Close() error                     { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// TestRelayReportsSeriousErrorInEitherOrder: relay() returns the first
// non-benign error of its two directions, whichever direction fails first.
// The compress direction reads plain; the decompress direction reads wire
// and writes plain.
func TestRelayReportsSeriousErrorInEitherOrder(t *testing.T) {
	reset := &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	closed := &net.OpError{Op: "read", Net: "tcp", Err: net.ErrClosed}
	timeout := &net.OpError{Op: "read", Net: "tcp", Err: os.ErrDeadlineExceeded}
	cut := []byte("AC")          // a wire that ends inside a frame header
	frames := tunnelFrameSeed(t) // a healthy peer's wire image

	for _, tc := range []struct {
		name      string
		plain     scriptedConn
		wire      scriptedConn
		wireFirst bool  // the decompress direction fails first
		want      error // relay's error must wrap it; nil = no error
	}{
		{name: "benign-then-serious", plain: scriptedConn{err: reset}, wire: scriptedConn{data: cut, err: io.EOF}, want: stream.ErrBadFrame},
		{name: "serious-then-benign", plain: scriptedConn{err: reset}, wire: scriptedConn{data: cut, err: io.EOF}, wireFirst: true, want: stream.ErrBadFrame},
		{name: "both-benign", plain: scriptedConn{err: reset, writeErr: reset}, wire: scriptedConn{data: frames, err: io.EOF}},
		{name: "none", plain: scriptedConn{err: io.EOF}, wire: scriptedConn{err: io.EOF}},
		// A wire that fails at a frame boundary carries no bad frame: closed
		// is the endpoint's own teardown, a timeout is an idle peer.
		{name: "wire-closed-at-boundary", plain: scriptedConn{err: io.EOF}, wire: scriptedConn{err: closed}},
		{name: "wire-timeout-at-boundary", plain: scriptedConn{err: io.EOF}, wire: scriptedConn{err: timeout}, want: ErrIdleTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, wire := tc.plain, tc.wire
			first, second := &plain, &wire
			if tc.wireFirst {
				first, second = &wire, &plain
			}
			first.failed = make(chan struct{})
			second.wait = first.failed

			err := relay(context.Background(), &plain, &wire, Config{}, "entry->exit", newTunnelMetrics(nil), nil)
			if tc.want == nil && err != nil {
				t.Fatalf("relay error = %v, want nil", err)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("relay error = %v, want one wrapping %v", err, tc.want)
			}
		})
	}
}
