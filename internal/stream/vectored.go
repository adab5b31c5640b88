package stream

import (
	"io"
	"net"
	"sync"
)

// VectoredWriter is the capability seam for vectored frame writes: a
// destination that accepts a frame's header and payload as two separate
// buffers, so the sender never has to assemble them contiguously.
// Implementations must write both buffers completely or return an error —
// the same all-or-error contract as writeFull; on error the stream is
// corrupt and must be abandoned. The tunnel's idle-deadline conn wrapper
// implements it to forward vectored writes to the underlying TCP conn.
type VectoredWriter interface {
	WriteVectored(hdr, payload []byte) error
}

// WriteVectored writes hdr then payload to w without copying them into one
// buffer, via the best mechanism the destination supports:
//
//   - a VectoredWriter gets both buffers as-is and makes its own
//     writev-or-fallback choice;
//   - a *net.TCPConn takes the net.Buffers path, a writev(2) on platforms
//     that have it, with the net package's write loop consuming short
//     writes;
//   - anything else falls back to two writeFull calls, preserving the
//     short-write-retry semantics that fault-injected transports
//     (internal/faultio) rely on.
//
// In every case either all bytes of both buffers are written or an error is
// returned, exactly as with writeFull over a contiguous frame.
func WriteVectored(w io.Writer, hdr, payload []byte) error {
	switch c := w.(type) {
	case VectoredWriter:
		return c.WriteVectored(hdr, payload)
	case *net.TCPConn:
		return writeBuffers(c, hdr, payload)
	}
	if err := writeFull(w, hdr); err != nil {
		return err
	}
	return writeFull(w, payload)
}

// vecFrame is a pooled two-piece net.Buffers, so the steady-state frame
// writer allocates nothing per frame: net.Buffers.WriteTo consumes the
// slice by re-slicing it, so bufs is rebuilt from the backing array on
// every use and the piece references are dropped before pooling (holding
// them would pin the frame buffers past their arena release).
type vecFrame struct {
	arr  [2][]byte
	bufs net.Buffers
}

var vecFramePool = sync.Pool{New: func() any { return new(vecFrame) }}

func writeBuffers(w io.Writer, hdr, payload []byte) error {
	v := vecFramePool.Get().(*vecFrame)
	v.arr[0], v.arr[1] = hdr, payload
	v.bufs = v.arr[:]
	_, err := v.bufs.WriteTo(w)
	v.arr[0], v.arr[1] = nil, nil
	v.bufs = nil
	vecFramePool.Put(v)
	return err
}
