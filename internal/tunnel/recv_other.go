//go:build !linux

package tunnel

import "net"

// arrivedReader finds nothing waiting on platforms without a non-blocking
// recv here: a message larger than the pending block's room then leaves in
// more than one frame when the relay is not coalescing.
type arrivedReader struct{}

func (*arrivedReader) read(net.Conn, []byte) int { return 0 }

// peerAlive always reports true on platforms without a cheap non-blocking
// peek; a connection that died while parked in the accept queue is instead
// discovered by the relay's first read.
func peerAlive(net.Conn) bool { return true }
