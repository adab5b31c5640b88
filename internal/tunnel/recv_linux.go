//go:build linux

package tunnel

import (
	"net"
	"syscall"
)

// arrivedReader asks a conn's socket what it holds without waiting for more:
// one non-blocking recv through the descriptor. The zero value is ready; it
// looks the descriptor up on first use, and binds the recv once, so a read
// allocates nothing.
type arrivedReader struct {
	raw   syscall.RawConn // nil on a conn that exposes no descriptor
	call  func(fd uintptr)
	buf   []byte
	flags int
	n     int
	err   error
}

// recv is one recvfrom(2) of conn into p with flags and MSG_DONTWAIT. A conn
// that exposes no descriptor has, as far as recv can tell, nothing waiting:
// it reads -1, EAGAIN.
func (a *arrivedReader) recv(conn net.Conn, p []byte, flags int) (int, error) {
	if a.call == nil {
		a.call = func(fd uintptr) {
			a.n, _, a.err = syscall.Recvfrom(int(fd), a.buf, a.flags|syscall.MSG_DONTWAIT)
		}
		if sc, ok := conn.(syscall.Conn); ok {
			a.raw, _ = sc.SyscallConn()
		}
	}
	if a.raw == nil {
		return -1, syscall.EAGAIN
	}
	a.buf, a.flags = p, flags
	err := a.raw.Control(a.call)
	a.buf = nil
	if err != nil {
		return -1, err
	}
	return a.n, a.err
}

// read reads into p what conn has already received. It returns 0 when
// nothing is waiting, when the peer has closed and on any error, all of
// which the next blocking Read reports in its own terms. A positive count is
// bytes taken off the socket, whatever else the call says; a failed recv
// returns -1.
func (a *arrivedReader) read(conn net.Conn, p []byte) int {
	n, _ := a.recv(conn, p, 0)
	return max(n, 0)
}

// peerAlive reports whether a parked connection's client is still there. A
// connection can spend a long time in the accept queue; if the client gave
// up and closed while parked, dialing the peer and spinning up a relay for
// it wastes the slot the connection just waited for. The probe is a
// non-blocking MSG_PEEK: it consumes nothing, so a live connection's
// pending bytes stay in the socket for the relay.
//
//   - 1 byte peeked: the client sent data (and may have half-closed after
//     — that data still deserves service) -> alive.
//   - 0 bytes, no error: orderly FIN with nothing pending -> dead.
//   - EAGAIN: open, nothing sent yet -> alive.
//   - ECONNRESET: dead.
//
// Any conn that does not expose a syscall descriptor is assumed alive; the
// relay's first read discovers the truth.
func peerAlive(conn net.Conn) bool {
	var a arrivedReader
	var buf [1]byte
	n, err := a.recv(conn, buf[:], syscall.MSG_PEEK)
	return (n != 0 || err != nil) && err != syscall.ECONNRESET
}
