package nephele

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"

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
	// openReader returns the consumer-side reader, which the caller closes.
	// Called once; may block until data is available (file channels block
	// until the producer finished writing, mirroring Nephele's staged file
	// channels).
	openReader() (io.ReadCloser, error)
	// abort tears the link down when the job fails, unblocking any
	// goroutine stuck in the link's I/O.
	abort(err error)
}

// ---------- network channel ----------

// netLink is a real TCP connection over the loopback interface: the
// consumer side listens, the producer dials. Running actual TCP keeps the
// flow-control behaviour the paper's decision model depends on. The link has
// one consumer, so its listener closes once that consumer has accepted.
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

func (l *netLink) openReader() (io.ReadCloser, error) {
	conn, err := l.listener.Accept()
	l.listener.Close()
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

func (l *fileLink) openReader() (io.ReadCloser, error) {
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
	return f, nil
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

// ---------- compression wrapping ----------

// wrapWriter layers bandwidth shaping and the adaptive compression stream
// onto a link's writer according to the edge spec. It returns the writer
// records go to and the compression stream, nil when the edge does not
// compress; a non-nil stream is closed before the link.
func wrapWriter(w io.Writer, spec ChannelSpec) (io.Writer, *stream.Writer, error) {
	if spec.WireMBps > 0 {
		limited, err := ratelimit.NewWriter(w, spec.WireMBps*1e6, 0)
		if err != nil {
			return nil, nil, err
		}
		w = limited
	}
	if spec.Compression == CompressionOff {
		return w, nil, nil
	}
	cfg := stream.WriterConfig{Window: spec.Window}
	if spec.Compression == CompressionStatic {
		cfg.Decider = core.Static(spec.StaticLevel)
	}
	sw, err := stream.NewWriter(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	return sw, sw, nil
}

func wrapReader(r io.Reader, spec ChannelSpec) (io.Reader, error) {
	if spec.Compression == CompressionOff {
		return r, nil
	}
	return stream.NewReader(r)
}
