package tunnel

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"adaptio/internal/stream"
)

// DefaultFlushInterval is the compress path's coalescing interval
// (Config.FlushInterval = 0): a partial block is cut once no frame has been
// cut for this long, at once if it arrives after such a quiet interval or
// before the path's first frame. 5 ms trades at most one extra frame per
// interval against keeping interactive traffic moving; see
// docs/performance.md, "Zero-copy relay".
const DefaultFlushInterval = 5 * time.Millisecond

// compressPath relays plain -> (adaptive compression) -> wire. It owns the
// plain side's read deadlines: Config.IdleTimeout is applied as a rolling
// deadline like everywhere else, and on top of it a coalescing flush
// deadline (Config.FlushInterval after the last frame cut; none before the
// first) bounds how long a partial block may sit buffered, so low-rate
// traffic keeps flowing without giving up full-block framing under load.
// Bytes are read straight into the stream writer's pending block
// (Writer.ReadDirect), so no level has a staging copy, and at NO level the
// stored-raw vectored frame path means a relayed byte is never copied in
// user space at all.
type compressPath struct {
	cfg       Config
	m         *tunnelMetrics
	pool      *stream.EncodePool // the endpoint's shared encode workers, or nil
	direction string
	plain     net.Conn    // raw plain-side conn: reads + deadline management
	src       plainSource // how pump reads plain
	wire      io.Writer   // idle-wrapped wire side (frames out)
	wireCW    halfCloser
}

func (p *compressPath) run() error {
	wcfg := p.cfg.writerConfig(p.m.streamScope)
	wcfg.Pool = p.pool
	if p.cfg.Policy != nil {
		wcfg.Decider = p.cfg.Policy()
		if d, ok := wcfg.Decider.(interface{ Detach() }); ok {
			defer d.Detach()
		}
	}
	w, err := stream.NewWriter(p.wire, wcfg)
	if err != nil {
		// The peer must still see EOF, or its decompress path — and with it
		// this relay — would wait for frames that never come.
		if p.wireCW != nil {
			p.wireCW.CloseWrite()
		}
		return fmt.Errorf("compress path: %w", err)
	}
	cpErr := p.pump(w)
	if closeErr := w.Close(); cpErr == nil {
		cpErr = closeErr
	}
	cpErr = classify(cpErr)
	if errors.Is(cpErr, ErrIdleTimeout) {
		p.m.idleTimeouts.Inc()
	}
	if p.wireCW != nil {
		p.wireCW.CloseWrite() // signal EOF downstream, keep reading
	}
	st := w.Stats()
	p.m.txAppBytes.Add(st.AppBytes)
	p.m.txWireBytes.Add(st.WireBytes)
	p.m.txSwitches.Add(st.LevelSwitches)
	p.m.bytesCopied.Add(st.CopiedBytes)
	p.m.passthroughBytes.Add(st.PassthroughBytes)
	if p.cfg.OnDone != nil {
		p.cfg.OnDone(ConnStats{Direction: p.direction, Stats: st, Err: cpErr})
	}
	if cpErr != nil {
		return fmt.Errorf("compress path: %w", cpErr)
	}
	return nil
}

// pump moves plain-side bytes into the writer until EOF or error. The read
// deadline on the raw plain conn is the earlier of the idle deadline
// (last activity + IdleTimeout) and, while a partial block is pending, the
// coalescing deadline (last frame cut + FlushInterval). A read that leaves a
// partial block when no frame has been cut for a whole FlushInterval — or
// none yet, so a connection's first message is not held — flushes it at
// once. A deadline expiry therefore means one of two things, told apart by
// wall clock: the direction idled out (surface it, classify wraps it in
// ErrIdleTimeout) or the pending block waited long enough (flush it and
// keep reading).
func (p *compressPath) pump(w *stream.Writer) error {
	flush := p.cfg.FlushInterval
	if flush == 0 {
		flush = DefaultFlushInterval
	}
	idle := p.cfg.IdleTimeout
	lastActivity := time.Now()
	// When the last frame was cut, full or partial. The zero time means none
	// yet, and is always a whole interval ago: time.Sub saturates.
	var lastFrame time.Time
	p.src.conn = p.plain
	for {
		var deadline time.Time
		if idle > 0 {
			deadline = lastActivity.Add(idle)
		}
		if w.Buffered() > 0 {
			if fd := lastFrame.Add(flush); deadline.IsZero() || fd.Before(deadline) {
				deadline = fd
			}
		}
		if err := p.plain.SetReadDeadline(deadline); err != nil {
			return err
		}
		n, cut, err := readArrived(w, &p.src)
		now := time.Now()
		if n > 0 {
			lastActivity = now
			if cut {
				lastFrame = now
			}
		}
		var ne net.Error
		timedOut := false
		switch {
		case err == nil:
		case err == io.EOF:
			return nil
		case errors.As(err, &ne) && ne.Timeout():
			if idle > 0 && now.Sub(lastActivity) >= idle {
				return err
			}
			timedOut = true
		default:
			return err
		}
		// A partial block leaves when the read that brought it ends a quiet
		// interval (nothing to coalesce with), and on the coalescing deadline.
		// The deadline may find nothing buffered: a window that closed in the
		// timed-out read switched level and cut the block. Or the timeout is
		// the writer's own sticky error — a wire write timed out inside
		// ReadDirect — which Flush hands back; carrying on would spin on it
		// until the idle deadline.
		if timedOut || (w.Buffered() > 0 && now.Sub(lastFrame) >= flush) {
			if ferr := w.Flush(); ferr != nil {
				return ferr
			}
			lastFrame = now
		}
	}
}

// plainSource is the plain side as the compress path reads it. The writer's
// pending block follows the traffic, so a read is offered the room of a
// block sized to the messages before it; full records that the last read
// filled that room, so more may have arrived already. With waiting set, a
// read takes only what has (arrivedReader) and never blocks.
type plainSource struct {
	conn    net.Conn
	arrived arrivedReader
	full    bool
	waiting bool
}

func (s *plainSource) Read(p []byte) (n int, err error) {
	if s.waiting {
		n = s.arrived.read(s.conn, p)
	} else {
		n, err = s.conn.Read(p)
	}
	s.full = n == len(p)
	return n, err
}

// readArrived moves into w what the plain side has delivered: one read,
// which waits under the deadline pump set, then, for as long as a read fills
// the room the pending block offered short of a full block, reads of what has
// already arrived, into the block grown a class each time. So a message that
// arrived at once is taken whole before pump decides whether to flush it, as
// it was when every read was offered a full block. cut reports that a full
// block was cut.
func readArrived(w *stream.Writer, src *plainSource) (n int, cut bool, err error) {
	src.waiting = false
	for {
		before := w.Buffered()
		var m int
		m, err = w.ReadDirect(src)
		n += m
		if cut = w.Buffered() < before+m; cut || err != nil || m == 0 || !src.full {
			return n, cut, err
		}
		src.waiting = true
	}
}

// decompressPath relays wire -> (decode) -> plain. io.Copy takes the
// Reader's WriteTo: non-identity blocks flow from the reader's pooled arena
// buffer to the plain conn, and identity (stored-raw) frames skip even
// that — their payload is written straight from the frame buffer after CRC
// verification.
type decompressPath struct {
	cfg     Config
	m       *tunnelMetrics
	wire    io.Reader // idle-wrapped wire side (frames in)
	plain   io.Writer // idle-wrapped plain side
	plainCW halfCloser
}

func (p *decompressPath) run() error {
	r, err := stream.NewReader(p.wire)
	if err != nil {
		return err
	}
	_, cpErr := io.Copy(p.plain, r)
	st := r.Stats()
	p.m.rxAppBytes.Add(st.AppBytes)
	p.m.rxWireBytes.Add(st.WireBytes)
	p.m.rxBlocks.Add(st.Blocks)
	p.m.bytesCopied.Add(st.CopiedBytes)
	p.m.passthroughBytes.Add(st.PassthroughBytes)
	r.Close() // recycle the arena buffers if the plain side failed first
	if p.plainCW != nil {
		p.plainCW.CloseWrite()
	}
	if cpErr = classify(cpErr); cpErr != nil {
		if errors.Is(cpErr, ErrIdleTimeout) {
			p.m.idleTimeouts.Inc()
		}
		return fmt.Errorf("decompress path: %w", cpErr)
	}
	return nil
}
