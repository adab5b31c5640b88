package nephele

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"

	"adaptio/internal/block"
	"adaptio/internal/core"
	"adaptio/internal/ratelimit"
	"adaptio/internal/stream"
)

// link is one point-to-point connection between a producer subtask and a
// consumer subtask of an edge. An edge with N producers and M consumers is
// realized as an N x M mesh of links.
type link interface {
	// openWriter returns the producer-side writer. Called once.
	openWriter() (io.WriteCloser, error)
	// openReader returns the consumer-side reader. Called once; may block
	// until data is available (file channels block until the producer
	// finished writing, mirroring Nephele's staged file channels).
	openReader() (io.Reader, error)
	// abort tears the link down when the job fails, unblocking any
	// goroutine stuck in the link's I/O.
	abort(err error)
}

// ---------- in-memory channel ----------

// memLink is a buffered in-process pipe carrying byte chunks. It bounds
// memory like Nephele's in-memory channels bound their exchange buffers.
//
// Buffer lifecycle (see internal/block): chunks travel the queue as pooled
// arena buffers. The writer acquires and fills a Buf per Write and hands
// ownership to the queue; the reader releases each Buf once its bytes are
// consumed. On abort, whichever side observes the closed link drains the
// queue and releases the stranded buffers (the post-send re-check in Write
// closes the race where a send slips in after a drain), so an aborted link
// returns its buffers to the arena too.
type memLink struct {
	ch     chan *block.Buf
	errMu  sync.Mutex
	err    error
	closed chan struct{}
	once   sync.Once
}

func newMemLink() *memLink {
	return &memLink{ch: make(chan *block.Buf, 32), closed: make(chan struct{})}
}

func (l *memLink) openWriter() (io.WriteCloser, error) { return &memWriter{l: l}, nil }

func (l *memLink) openReader() (io.Reader, error) { return &memReader{l: l}, nil }

func (l *memLink) abort(err error) {
	l.errMu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.errMu.Unlock()
	l.once.Do(func() { close(l.closed) })
	l.drain()
}

func (l *memLink) aborted() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}

// drain releases every chunk currently queued. Only called once the link is
// dead (closed is closed or the writer closed the queue), when the data can
// no longer be delivered. Concurrent drains are safe: each Buf is received,
// and therefore released, exactly once.
func (l *memLink) drain() {
	for {
		select {
		case b, ok := <-l.ch:
			if !ok {
				return
			}
			b.Release()
		default:
			return
		}
	}
}

type memWriter struct {
	l    *memLink
	once sync.Once
}

func (w *memWriter) Write(p []byte) (int, error) {
	buf := block.GetLen(len(p))
	copy(buf.B, p)
	select {
	case w.l.ch <- buf:
		// Re-check after the send: if the link was aborted concurrently,
		// the aborter's drain may already have run, so reclaim the queue
		// ourselves and report the failure.
		select {
		case <-w.l.closed:
			w.l.drain()
			return 0, w.closedErr()
		default:
		}
		return len(p), nil
	case <-w.l.closed:
		buf.Release()
		return 0, w.closedErr()
	}
}

func (w *memWriter) closedErr() error {
	if err := w.l.aborted(); err != nil {
		return err
	}
	return errors.New("nephele: write on closed in-memory channel")
}

func (w *memWriter) Close() error {
	w.once.Do(func() { close(w.l.ch) })
	return nil
}

type memReader struct {
	l        *memLink
	cur      []byte
	curArena *block.Buf
}

func (r *memReader) Read(p []byte) (int, error) {
	for len(r.cur) == 0 {
		r.releaseCur()
		select {
		case buf, ok := <-r.l.ch:
			if !ok {
				if err := r.l.aborted(); err != nil {
					return 0, err
				}
				return 0, io.EOF
			}
			r.curArena = buf
			r.cur = buf.B
		case <-r.l.closed:
			r.l.drain()
			if err := r.l.aborted(); err != nil {
				return 0, err
			}
			return 0, io.EOF
		}
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	if len(r.cur) == 0 {
		r.releaseCur()
	}
	return n, nil
}

func (r *memReader) releaseCur() {
	if r.curArena != nil {
		r.curArena.Release()
		r.curArena = nil
	}
	r.cur = nil
}

// ---------- network channel ----------

// netLink is a real TCP connection over the loopback interface: the
// consumer side listens, the producer dials. Running actual TCP keeps the
// flow-control behaviour the paper's decision model depends on.
type netLink struct {
	listener net.Listener

	mu       sync.Mutex
	conns    []net.Conn
	aborted  bool
	abortErr error
}

func newNetLink() (*netLink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("nephele: network channel listen: %w", err)
	}
	return &netLink{listener: ln}, nil
}

func (l *netLink) openWriter() (io.WriteCloser, error) {
	conn, err := net.Dial("tcp", l.listener.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("nephele: network channel dial: %w", err)
	}
	l.track(conn)
	return conn.(*net.TCPConn), nil
}

func (l *netLink) openReader() (io.Reader, error) {
	conn, err := l.listener.Accept()
	if err != nil {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.aborted {
			return nil, l.abortErr
		}
		return nil, fmt.Errorf("nephele: network channel accept: %w", err)
	}
	l.track(conn)
	return conn, nil
}

func (l *netLink) track(c net.Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.aborted {
		c.Close()
		return
	}
	l.conns = append(l.conns, c)
}

func (l *netLink) abort(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.aborted {
		return
	}
	l.aborted = true
	l.abortErr = err
	l.listener.Close()
	for _, c := range l.conns {
		c.Close()
	}
}

// ---------- file channel ----------

// fileLink stages data through a temporary file: the producer writes the
// complete file, then the consumer reads it. This serializes the two
// vertices, which is exactly how Nephele's file channels decouple producer
// and consumer in time.
type fileLink struct {
	path  string
	ready chan struct{} // closed when the producer is done
	once  sync.Once

	mu       sync.Mutex
	abortErr error
}

func newFileLink(dir, label string) (*fileLink, error) {
	f, err := os.CreateTemp(dir, "nephele-"+label+"-*.chan")
	if err != nil {
		return nil, fmt.Errorf("nephele: file channel: %w", err)
	}
	path := f.Name()
	f.Close()
	return &fileLink{path: path, ready: make(chan struct{})}, nil
}

func (l *fileLink) openWriter() (io.WriteCloser, error) {
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	return &fileWriter{f: f, l: l}, nil
}

type fileWriter struct {
	f *os.File
	l *fileLink
}

func (w *fileWriter) Write(p []byte) (int, error) { return w.f.Write(p) }

func (w *fileWriter) Close() error {
	err := w.f.Close()
	w.l.once.Do(func() { close(w.l.ready) })
	return err
}

func (l *fileLink) openReader() (io.Reader, error) {
	<-l.ready
	l.mu.Lock()
	abortErr := l.abortErr
	l.mu.Unlock()
	if abortErr != nil {
		return nil, abortErr
	}
	f, err := os.Open(l.path)
	if err != nil {
		return nil, err
	}
	return &selfClosingFile{f: f}, nil
}

func (l *fileLink) abort(err error) {
	l.mu.Lock()
	if l.abortErr == nil {
		l.abortErr = err
	}
	l.mu.Unlock()
	l.once.Do(func() { close(l.ready) })
}

// cleanup removes the staging file.
func (l *fileLink) cleanup() { os.Remove(l.path) }

// selfClosingFile closes the underlying file when EOF is reached.
type selfClosingFile struct {
	f      *os.File
	closed bool
}

func (s *selfClosingFile) Read(p []byte) (int, error) {
	if s.closed {
		return 0, io.EOF
	}
	n, err := s.f.Read(p)
	if err == io.EOF {
		s.f.Close()
		s.closed = true
	}
	return n, err
}

// ---------- compression wrapping ----------

// wrapWriter layers bandwidth shaping and the adaptive compression stream
// onto a link's writer according to the edge spec. It returns the wrapped
// writer, a flush-close function, and an accessor for the stream's level
// switches (0 when compression is off).
func wrapWriter(w io.WriteCloser, spec ChannelSpec) (io.Writer, func() error, func() int64, error) {
	if spec.WireMBps > 0 {
		limited, err := ratelimit.NewWriter(w, spec.WireMBps*1e6, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		w = &writeCloserPair{limited, w}
	}
	if spec.Compression == CompressionOff {
		return w, w.Close, func() int64 { return 0 }, nil
	}
	cfg := stream.WriterConfig{Window: spec.Window}
	if spec.Compression == CompressionStatic {
		cfg.Decider = core.Static(spec.StaticLevel)
	}
	sw, err := stream.NewWriter(w, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	closeAll := func() error {
		if err := sw.Close(); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	}
	return sw, closeAll, func() int64 { return sw.Stats().LevelSwitches }, nil
}

func wrapReader(r io.Reader, spec ChannelSpec) (io.Reader, error) {
	if spec.Compression == CompressionOff {
		return r, nil
	}
	return stream.NewReader(r)
}
