package stream

import (
	"errors"
	"io"

	"adaptio/internal/block"
	"adaptio/internal/compress"
)

// errReaderClosed is the sticky error installed by Close on a reader
// abandoned before end of stream.
var errReaderClosed = errors.New("stream: reader closed")

// Reader decompresses a stream of frames produced by Writer. It is
// completely stateless across blocks — every frame carries its codec ID —
// so it needs no knowledge of the sender's ladder or decision model, exactly
// as the paper requires for transparent mid-stream level switches.
//
// A Reader decodes each frame on the caller's goroutine, inside Read or
// WriteTo, and never starts a goroutine: the receive side only has to keep
// up with the wire, and one core decodes several times faster than a core
// encodes (docs/performance.md).
//
// Corrupt-frame policy (see docs/robustness.md): a Reader fails fast. The
// first frame that is truncated, has a damaged header, an unknown codec, a
// payload that does not decompress, or a CRC mismatch makes Read return a
// *FrameError carrying the frame index and wire byte offset and wrapping
// ErrBadFrame; the error is sticky and every later Read returns it again.
// No bytes from the bad frame are ever delivered (CRC is verified before
// delivery), allocation is bounded by MaxBlockSize however hostile the
// header, and a Reader never panics on any input.
//
// Buffer lifecycle (see internal/block and docs/performance.md): a Reader
// holds an arena buffer only while it holds bytes the caller has not taken.
// Each frame's payload is read into a buffer of its own and decoded into the
// block; the block is released once its last byte is delivered, so a Reader
// waiting for its next frame holds nothing. A Reader abandoned mid-block
// should be Closed; failing to do so is not a memory leak (the GC reclaims
// the buffer), it just bypasses the arena.
//
// Reader is not safe for concurrent use.
type Reader struct {
	frames frameSource

	blk *block.Buf // the current block; nil once every byte is delivered
	off int        // how many of its bytes have been delivered
	err error      // sticky error (including io.EOF)

	stats Stats // see Stats
}

// NewReader creates a Reader over src.
func NewReader(src io.Reader) (*Reader, error) {
	if src == nil {
		return nil, errors.New("stream: nil source reader")
	}
	return &Reader{frames: frameSource{src: src}}, nil
}

// NewParallelReader is NewReader; workers is ignored.
//
// Deprecated: kept only because bench/ calls it; goes with ROADMAP item 1a-iv.
func NewParallelReader(src io.Reader, workers int) (*Reader, error) {
	return NewReader(src)
}

// Read implements io.Reader, delivering the original application bytes.
// A zero-length Read never touches the source: it returns the sticky error
// if there is one, else (0, nil), as bufio.Reader does.
func (r *Reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, r.err // set only once the buffered block is spent
	}
	for r.blk == nil {
		if r.err != nil {
			return 0, r.err
		}
		r.fill(false)
	}
	n := copy(p, r.blk.B[r.off:])
	r.taken(n)
	return n, nil
}

// taken records n more bytes of the current block delivered, and releases
// the block once the caller has taken all of them.
func (r *Reader) taken(n int) {
	r.off += n
	if r.off >= len(r.blk.B) {
		r.blk.Release()
		r.blk, r.off = nil, 0
	}
}

// Close returns the block still being delivered, if any, to the arena and
// makes further Reads fail.
// It never fails and is safe to call multiple times, also after EOF
// (nothing is held by then), but not concurrently with Read.
// Close does not close the underlying source.
func (r *Reader) Close() error {
	if r.err == nil {
		r.err = errReaderClosed
	}
	if r.blk != nil {
		r.blk.Release()
	}
	r.blk, r.off = nil, 0
	return nil
}

// fill reads the next frame and decodes it into the current block. It is
// only called once the previous block has been fully delivered and
// released. direct says the caller hands the block on without copying it
// out (WriteTo), which is all the copy ledger needs to know. Any terminal
// condition — clean EOF or a *FrameError — becomes the sticky error.
func (r *Reader) fill(direct bool) {
	f, err := r.frames.next()
	if err == nil {
		r.blk, err = f.decode()
	}
	if err != nil {
		r.err = err
		return
	}
	r.taken(0) // an empty block is spent already
	r.stats.AppBytes += int64(f.rawLen)
	r.stats.WireBytes += int64(headerSize + f.compLen)
	r.stats.Blocks++
	if direct && f.codecID == compress.IDNone {
		r.stats.PassthroughBytes += int64(f.rawLen)
	} else {
		r.stats.CopiedBytes += int64(f.rawLen)
	}
}

// Stats returns the receive side of the writer's ledger so far: AppBytes
// delivered, WireBytes consumed, Blocks decoded, and AppBytes split by
// user-space copy cost on the way to the consumer. PassthroughBytes were
// stored-raw frames handed to a WriteTo destination straight from the buffer
// the wire was read into (the relay's zero-copy decompress path,
// docs/performance.md); CopiedBytes went through a codec transform into the
// arena, or through Read's copy-out. The level and probe fields stay zero: a
// reader takes no decisions.
func (r *Reader) Stats() Stats { return r.stats }

// WriteTo implements io.WriterTo, streaming all remaining blocks to w. This
// is the efficient path for relays and sinks: blocks are forwarded from the
// arena without the caller's copy loop, and stored-raw frames go out
// straight from the buffer their payload was read into once the CRC
// verifies.
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for {
		for r.blk != nil {
			n, err := w.Write(r.blk.B[r.off:])
			if n > 0 {
				total += int64(n)
				r.taken(n)
			} else if err == nil {
				err = io.ErrShortWrite
			}
			if err != nil {
				return total, err
			}
		}
		if r.err == io.EOF {
			return total, nil
		}
		if r.err != nil {
			return total, r.err
		}
		r.fill(true)
	}
}
