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
// Buffer lifecycle (see internal/block and docs/performance.md): blocks and
// payloads ride arena buffers that are recycled when the stream ends —
// clean EOF, any sticky error, or Close releases them. A Reader abandoned
// before end of stream should be Closed; failing to do so is not a memory
// leak (the GC reclaims the buffers), it just bypasses the arena.
//
// Reader is not safe for concurrent use.
type Reader struct {
	frames frameSource

	arena *block.Buf // backing of blk
	spare *block.Buf // where the next payload is read
	blk   []byte     // decoded bytes of the current block
	off   int        // how many of them have been delivered
	err   error      // sticky error (including io.EOF)

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
func (r *Reader) Read(p []byte) (int, error) {
	for r.off == len(r.blk) {
		if r.err != nil {
			return 0, r.err
		}
		r.fill(false)
	}
	n := copy(p, r.blk[r.off:])
	r.off += n
	return n, nil
}

// Close returns the reader's pooled buffers to the arena and makes further
// Reads fail.
// It never fails and is safe to call multiple times, also after EOF
// (everything is already recycled by then), but not concurrently with Read.
// Close does not close the underlying source.
func (r *Reader) Close() error {
	if r.err == nil {
		r.err = errReaderClosed
	}
	if r.arena != nil {
		r.arena.Release()
	}
	if r.spare != nil {
		r.spare.Release()
	}
	r.arena, r.spare, r.blk, r.off = nil, nil, nil, 0
	return nil
}

// fill reads the next frame and decodes it into the current block. It is
// only called once the previous block has been fully delivered, so its
// buffer is free to recycle. direct says the caller hands the block on
// without copying it out (WriteTo), which is all the copy ledger needs to
// know. Any terminal condition — clean EOF or
// a *FrameError — becomes the sticky error and releases everything.
func (r *Reader) fill(direct bool) {
	f, err := r.frames.next(r.spare)
	r.spare = nil // with the frame now, or released
	if err == nil {
		r.arena, r.spare, err = f.decode(r.arena)
	}
	if err != nil {
		r.err = err
		r.Close()
		return
	}
	r.blk, r.off = r.arena.B, 0
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
		for r.off < len(r.blk) {
			n, err := w.Write(r.blk[r.off:])
			if n > 0 {
				total += int64(n)
				r.off += n
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
