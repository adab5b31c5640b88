//go:build !linux

package tunnel

import "net"

// arrivedReader finds nothing waiting on platforms without a non-blocking
// recv here: a message larger than the pending block's room then leaves in
// more than one frame when the relay is not coalescing.
type arrivedReader struct{}

func (*arrivedReader) read(net.Conn, []byte) int { return 0 }
