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
// NewReader decodes each frame inline on the caller's goroutine.
// NewParallelReader decodes on a worker pool (see readPool) and must be
// Closed when abandoned before end of stream, or its goroutines leak.
// Everything below holds in both modes.
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
// clean EOF, any sticky error, or Close releases them and stops the pool. An
// inline Reader abandoned before end of stream should be Closed too;
// failing to do so is not a memory leak (the GC reclaims the buffers), it
// just bypasses the arena.
//
// Reader is not safe for concurrent use.
type Reader struct {
	frames frameSource // inline mode; the pool's wire goroutine owns it otherwise
	pool   *readPool   // non-nil in pool mode until the stream ends

	arena *block.Buf // backing of blk
	spare *block.Buf // inline mode: where the next payload is read
	blk   []byte     // decoded bytes of the current block
	off   int        // how many of them have been delivered
	err   error      // sticky error (including io.EOF)

	stats Stats // see Stats
}

// NewReader creates a Reader over src that decodes inline.
func NewReader(src io.Reader) (*Reader, error) {
	if src == nil {
		return nil, errors.New("stream: nil source reader")
	}
	return &Reader{frames: frameSource{src: src}}, nil
}

// NewParallelReader creates a Reader over src whose frames are decompressed
// and CRC-verified by the given number of workers while the application
// bytes are still delivered strictly in order — the receive-side counterpart
// of WriterConfig.Parallelism. Frames are read from the source sequentially
// (the wire is serial anyway). One worker or fewer is NewReader: inline
// decoding, no goroutine started.
func NewParallelReader(src io.Reader, workers int) (*Reader, error) {
	r, err := NewReader(src)
	if err == nil && workers > 1 {
		r.pool = startReadPool(&r.frames, workers)
	}
	return r, err
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

// Close stops the worker pool, returns every pooled buffer — the reader's
// own and those still in flight — to the arena and makes further Reads fail.
// It never fails and is safe to call multiple times, also after EOF
// (everything is already recycled by then), but not concurrently with Read.
// Close does not close the underlying source.
func (r *Reader) Close() error {
	if r.err == nil {
		r.err = errReaderClosed
	}
	if r.pool != nil {
		r.pool.stop()
		r.pool = nil
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

// fill makes the next frame's block current: decoded on the spot, or taken
// from the pool's ordered output. It is only called once the previous block
// has been fully delivered, so its buffer is free to recycle. direct says
// the caller hands the block on without copying it out (WriteTo), which is
// all the copy ledger needs to know. Any terminal condition — clean EOF or
// a *FrameError — becomes the sticky error and releases everything.
func (r *Reader) fill(direct bool) {
	var h header
	var err error
	if r.pool != nil {
		var d decodedFrame
		if d, err = r.pool.next(); err == nil {
			if r.arena != nil {
				r.arena.Release()
			}
			h, r.arena = d.header, d.blk
		}
	} else {
		var f rawFrame
		f, err = r.frames.next(r.spare)
		r.spare = nil // with the frame now, or released
		if err == nil {
			h = f.header
			r.arena, r.spare, err = f.decode(r.arena)
		}
	}
	if err != nil {
		r.err = err
		r.Close()
		return
	}
	r.blk, r.off = r.arena.B, 0
	r.stats.AppBytes += int64(h.rawLen)
	r.stats.WireBytes += int64(headerSize + h.compLen)
	r.stats.Blocks++
	if direct && h.codecID == compress.IDNone {
		r.stats.PassthroughBytes += int64(h.rawLen)
	} else {
		r.stats.CopiedBytes += int64(h.rawLen)
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
