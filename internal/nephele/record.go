// Package nephele is a miniature reimplementation of the Nephele parallel
// data processing framework (Warneke & Kao, MTAGS 2009) — the system the
// paper integrated its adaptive compression scheme into (Section III-B).
//
// Jobs are expressed as directed acyclic graphs: each vertex is a task, each
// edge a communication channel wired round-robin from producer to consumer
// subtasks. The channel types are the two the paper compressed: TCP network
// and file. Either optionally compresses its traffic — statically at a fixed
// level or adaptively through the rate-based decision model — completely
// transparently to the task code, exactly as the paper describes ("The
// implementation is completely transparent to the tasks, so there is no
// modification required to their program code").
package nephele

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"adaptio/internal/block"
)

// MaxRecordSize bounds a single record; larger writes are rejected and
// larger length prefixes on the wire are treated as corruption.
const MaxRecordSize = 16 << 20

// ErrRecordTooLarge is returned for records exceeding MaxRecordSize.
var ErrRecordTooLarge = errors.New("nephele: record exceeds maximum size")

// RecordWriter frames records onto a byte stream with a uvarint length
// prefix.
type RecordWriter struct {
	w       io.Writer
	lenBuf  [binary.MaxVarintLen64]byte
	records int64
	bytes   int64
}

// NewRecordWriter wraps w.
func NewRecordWriter(w io.Writer) *RecordWriter { return &RecordWriter{w: w} }

// WriteRecord writes one record.
func (rw *RecordWriter) WriteRecord(p []byte) error {
	if len(p) > MaxRecordSize {
		return fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(p))
	}
	n := binary.PutUvarint(rw.lenBuf[:], uint64(len(p)))
	if _, err := rw.w.Write(rw.lenBuf[:n]); err != nil {
		return err
	}
	if _, err := rw.w.Write(p); err != nil {
		return err
	}
	rw.records++
	rw.bytes += int64(len(p))
	return nil
}

// Counters returns records and payload bytes written.
func (rw *RecordWriter) Counters() (records, bytes int64) { return rw.records, rw.bytes }

// RecordReader decodes records framed by RecordWriter.
//
// Buffer lifecycle (see internal/block): each record is read into an arena
// buffer of its size, held only until the next ReadRecord call, which
// releases it before reading on. A reader waiting for its next record, or
// drained to an error return (io.EOF included), holds nothing; a reader
// abandoned after a record should be Closed to return its buffer.
type RecordReader struct {
	r       io.Reader
	br      byteReaderAdapter
	rec     *block.Buf // the record last returned; nil once released
	records int64
}

// NewRecordReader wraps r.
func NewRecordReader(r io.Reader) *RecordReader {
	rr := &RecordReader{r: r}
	rr.br.r = r
	return rr
}

// ReadRecord returns the next record. The returned slice is valid only
// until the next call; callers that retain it must copy. It returns io.EOF at
// a clean end of stream and io.ErrUnexpectedEOF when the stream ends inside a
// record.
func (rr *RecordReader) ReadRecord() ([]byte, error) {
	rr.releaseBuf() // the previous record is invalid from this call on
	// binary.ReadUvarint returns io.EOF only when no byte of the varint
	// was read (a clean record boundary) and io.ErrUnexpectedEOF when the
	// stream ends mid-varint.
	size, err := binary.ReadUvarint(&rr.br)
	if err != nil {
		return nil, err
	}
	if size > MaxRecordSize {
		return nil, fmt.Errorf("nephele: corrupt stream: record length %d", size)
	}
	rr.rec = block.GetLen(int(size))
	if _, err := io.ReadFull(rr.r, rr.rec.B); err != nil {
		rr.releaseBuf()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	rr.records++
	return rr.rec.B, nil
}

// Close returns the last record's buffer to the arena. It is only needed
// when a reader is abandoned before an error return; it never fails and is
// safe to call multiple times. Close does not close the underlying source.
func (rr *RecordReader) Close() error {
	rr.releaseBuf()
	return nil
}

func (rr *RecordReader) releaseBuf() {
	if rr.rec != nil {
		rr.rec.Release()
		rr.rec = nil
	}
}

// Records returns the number of records read.
func (rr *RecordReader) Records() int64 { return rr.records }

// byteReaderAdapter provides io.ByteReader over an io.Reader.
type byteReaderAdapter struct {
	r   io.Reader
	one [1]byte
}

func (b *byteReaderAdapter) ReadByte() (byte, error) {
	for {
		n, err := b.r.Read(b.one[:])
		if n == 1 {
			return b.one[0], nil
		}
		if err != nil {
			return 0, err
		}
	}
}
