// Package stream is the adaptive compression stream layer: it sits between
// the application and the I/O layer (Section III-A of the paper), cuts the
// outgoing byte stream into self-describing blocks of at most 128 KB
// (Nephele's internal buffer size, Section III-B), compresses each block with
// the level currently selected by the rate-based decision model
// (internal/core), and frames it so that the receiver can decompress a stream
// whose compression level changes over time without any coordination.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"adaptio/internal/block"
	"adaptio/internal/compress"
)

// DefaultBlockSize is Nephele's internal buffer size: "Nephele internally
// buffers data that is written to its file or network channel in memory
// blocks of at most 128 KB size" (Section III-B).
const DefaultBlockSize = 128 << 10

// MaxBlockSize bounds the raw length a frame may declare; it protects the
// receiver against hostile or corrupt headers requesting huge allocations.
const MaxBlockSize = 1 << 24

// frame header layout (little endian):
//
//	offset 0: magic "AC"        (2 bytes)
//	offset 2: version           (1 byte, currently 1)
//	offset 3: codec ID          (1 byte)
//	offset 4: raw length        (4 bytes)
//	offset 8: compressed length (4 bytes)
//	offset 12: CRC-32C of the raw (uncompressed) block (4 bytes)
const (
	headerSize   = 16
	frameVersion = 1
)

var frameMagic = [2]byte{'A', 'C'}

// crcTable is the Castagnoli polynomial table (hardware accelerated on
// modern CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame is wrapped by all framing errors.
var ErrBadFrame = errors.New("stream: bad frame")

// FrameError locates a framing error in the wire stream: Frame is the
// zero-based index of the offending frame, Offset the wire byte offset of
// its first header byte. It wraps the underlying cause, which in turn wraps
// ErrBadFrame for framing-level corruption, so both
// errors.Is(err, ErrBadFrame) and errors.As(err, *FrameError) work. A
// transport error at a frame boundary is located the same way but is not a
// bad frame: it wraps only the transport's error.
type FrameError struct {
	Frame  int64
	Offset int64
	Err    error
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("stream: frame %d at wire offset %d: %v", e.Frame, e.Offset, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *FrameError) Unwrap() error { return e.Err }

// writeFull writes all of p to w, retrying on short writes. The io.Writer
// contract promises an error whenever n < len(p), but fault-injected and
// load-shedding transports (see internal/faultio) legitimately report short
// counts with a nil error the way POSIX write(2) does; silently dropping
// the tail of a frame there would corrupt the stream.
func writeFull(w io.Writer, p []byte) error {
	for len(p) > 0 {
		n, err := w.Write(p)
		if err != nil {
			return err
		}
		if n <= 0 {
			return io.ErrShortWrite
		}
		p = p[n:]
	}
	return nil
}

// header is the decoded form of a frame header.
type header struct {
	codecID uint8
	rawLen  int
	compLen int
	crc     uint32
}

func putHeader(dst []byte, h header) {
	dst[0] = frameMagic[0]
	dst[1] = frameMagic[1]
	dst[2] = frameVersion
	dst[3] = h.codecID
	binary.LittleEndian.PutUint32(dst[4:], uint32(h.rawLen))
	binary.LittleEndian.PutUint32(dst[8:], uint32(h.compLen))
	binary.LittleEndian.PutUint32(dst[12:], h.crc)
}

func parseHeader(src []byte) (header, error) {
	var h header
	if src[0] != frameMagic[0] || src[1] != frameMagic[1] {
		return h, fmt.Errorf("%w: bad magic %q", ErrBadFrame, src[:2])
	}
	if src[2] != frameVersion {
		return h, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, src[2])
	}
	h.codecID = src[3]
	h.rawLen = int(binary.LittleEndian.Uint32(src[4:]))
	h.compLen = int(binary.LittleEndian.Uint32(src[8:]))
	h.crc = binary.LittleEndian.Uint32(src[12:])
	if h.rawLen > MaxBlockSize {
		return h, fmt.Errorf("%w: raw length %d exceeds limit", ErrBadFrame, h.rawLen)
	}
	if h.compLen > MaxBlockSize+MaxBlockSize/64+256 {
		return h, fmt.Errorf("%w: compressed length %d exceeds limit", ErrBadFrame, h.compLen)
	}
	return h, nil
}

// maxFrameSize bounds the encoded size of one frame for an n-byte block:
// header plus raw length plus slack for the worst-case pre-fallback
// expansion of the heaviest codec (the range coder peaks near 9 bits per
// byte on adversarial input before the stored-raw fallback trims the frame
// back to header + raw). Sizing scratch buffers to this bound keeps the
// steady-state encode path free of append regrowth; the bound also pairs
// with the block arena's 160 KB class, which holds a maxFrameSize frame
// for the default 128 KB block.
func maxFrameSize(n int) int {
	return headerSize + n + n/8 + 64
}

// encodeFramePieces compresses block with the given ladder level into
// scratch (which must be empty; its storage is reused) and returns the
// resulting frame as up to two pieces. When the codec shrank the block,
// head is the complete frame (header + compressed payload) and tail is nil.
// When the block is stored raw — an identity level, the codec failed to
// shrink it (the standard stored-block fallback, so a frame never expands
// by more than the header), or the caller says it is hopeless —
// head is the bare header and tail aliases block: the caller can then put
// both pieces on the wire without ever copying the block into scratch (see
// Writer.emit / WriteVectored). tail is only valid until block's buffer is
// reused.
//
// hopeless is the entropy pre-probe's verdict on the block (near-uniform byte
// distribution AND no recurring 4-byte windows, see internal/compress/probe;
// the Writer takes it when it cuts the block): such a block goes straight to
// stored-raw framing, so its bytes are never run through — or even copied by
// — the codec. The wire bytes are identical either way, because a codec
// attempt on such a block would fail to shrink it and take the same
// stored-raw fallback; the verdict only removes the wasted work.
func encodeFramePieces(scratch []byte, ladder compress.Ladder, level int, block []byte, hopeless bool) (head, tail []byte, codecID uint8) {
	crc := crc32.Checksum(block, crcTable)
	scratch = append(scratch, make([]byte, headerSize)...)
	codec := ladder[level].Codec
	codecID = codec.ID()
	if codecID != compress.IDNone && !hopeless {
		scratch = codec.Compress(scratch, block)
		if compLen := len(scratch) - headerSize; compLen < len(block) {
			putHeader(scratch, header{
				codecID: codecID,
				rawLen:  len(block),
				compLen: compLen,
				crc:     crc,
			})
			return scratch, nil, codecID
		}
	}
	putHeader(scratch, header{
		codecID: compress.IDNone,
		rawLen:  len(block),
		compLen: len(block),
		crc:     crc,
	})
	return scratch[:headerSize], block, compress.IDNone
}

// frameSource reads frames off the wire one after another for the Reader's
// fill, and is the one place that knows a frame's index and wire offset.
type frameSource struct {
	src    io.Reader
	hdr    [headerSize]byte // header scratch, reused every frame
	frame  int64            // index of the next frame
	offset int64            // wire offset of its first header byte
}

// rawFrame is one frame as it came off the wire: the parsed header and the
// still-encoded payload, plus where it sat in the stream.
type rawFrame struct {
	header
	payload *block.Buf // owned by whoever holds the frame
	frame   int64
	offset  int64
}

// fail locates err in the wire stream.
func (f *rawFrame) fail(err error) error {
	return &FrameError{Frame: f.frame, Offset: f.offset, Err: err}
}

// next reads one frame, its payload into an arena buffer the caller then
// owns. It returns io.EOF at a clean end of stream — no header byte read —
// and a *FrameError otherwise: wrapping ErrBadFrame if the stream ends
// inside the frame or the header is damaged, wrapping only the transport's
// error if that fails before a header byte arrives.
func (s *frameSource) next() (rawFrame, error) {
	f := rawFrame{frame: s.frame, offset: s.offset}
	n, err := io.ReadFull(s.src, s.hdr[:])
	switch {
	case err == io.EOF:
	case err != nil && n == 0:
		// The transport failed at a frame boundary: nothing is corrupt.
		err = f.fail(err)
	case err != nil:
		err = f.fail(fmt.Errorf("%w: truncated header: %w", ErrBadFrame, err))
	default:
		if f.header, err = parseHeader(s.hdr[:]); err != nil {
			err = f.fail(err)
			break
		}
		f.payload = block.GetLen(f.compLen)
		if _, err = io.ReadFull(s.src, f.payload.B); err != nil {
			f.payload.Release()
			err = f.fail(fmt.Errorf("%w: truncated payload: %w", ErrBadFrame, err))
		}
	}
	if err != nil {
		return f, err
	}
	s.frame++
	s.offset += int64(headerSize + f.compLen)
	return f, nil
}

// decode turns the frame into its raw block, CRC-verified before anything is
// delivered, and takes the payload with it. A stored-raw frame's payload is
// the block, so its buffer is handed over without a copy; any other frame is
// decompressed into a fresh buffer and the payload released. The caller owns
// the block. On error nothing is left held and the *FrameError names the
// frame: no byte of a bad frame is ever delivered.
func (f *rawFrame) decode() (*block.Buf, error) {
	blk := f.payload
	var err error
	if f.codecID != compress.IDNone || f.rawLen != f.compLen {
		var codec compress.Codec
		if codec, err = compress.ByID(f.codecID); err == nil {
			blk = block.Get(f.rawLen)
			blk.B, err = codec.Decompress(blk.B, f.payload.B, f.rawLen)
			f.payload.Release()
		}
	}
	if err == nil {
		if got := crc32.Checksum(blk.B, crcTable); got != f.crc {
			err = fmt.Errorf("CRC mismatch (got %08x, want %08x)", got, f.crc)
		}
	}
	if err != nil {
		blk.Release()
		return nil, f.fail(fmt.Errorf("%w: %w", ErrBadFrame, err))
	}
	return blk, nil
}
