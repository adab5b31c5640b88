//go:build linux

package tunnel

import (
	"net"
	"syscall"
)

// arrivedReader takes what a conn has already received without waiting for
// more: one non-blocking recv through the descriptor, as peerAlive probes
// it. The zero value is ready; it looks the descriptor up on first use, and
// binds the recv once, so a read allocates nothing.
type arrivedReader struct {
	raw  syscall.RawConn // nil on a conn that exposes no descriptor
	recv func(fd uintptr)
	buf  []byte
	n    int
}

// read reads into p what conn has already received. It returns 0 when
// nothing is waiting, when the peer has closed and on any error, all of
// which the next blocking Read reports in its own terms.
func (a *arrivedReader) read(conn net.Conn, p []byte) int {
	if a.recv == nil {
		a.recv = func(fd uintptr) {
			// A positive count is bytes taken off the socket, whatever
			// else the call says; a failed recv returns -1.
			a.n, _, _ = syscall.Recvfrom(int(fd), a.buf, syscall.MSG_DONTWAIT)
		}
		if sc, ok := conn.(syscall.Conn); ok {
			a.raw, _ = sc.SyscallConn()
		}
	}
	if a.raw == nil {
		return 0
	}
	a.buf, a.n = p, 0
	a.raw.Control(a.recv)
	a.buf = nil
	return max(a.n, 0)
}
