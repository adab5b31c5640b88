package stream

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"adaptio/internal/corpus"
)

// corruptSeedWire builds the valid wire image the corrupt-stream fuzzer
// mutates: three blocks across two codec levels.
func corruptSeedWire(tb testing.TB) []byte {
	tb.Helper()
	var wire bytes.Buffer
	w, err := NewWriter(&wire, WriterConfig{Static: true, StaticLevel: LevelLight, BlockSize: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(corpus.Generate(corpus.Moderate, 2500, 9)); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return wire.Bytes()
}

// FuzzReaderCorruptStream hammers the frame reader with corrupt wire bytes
// and checks the documented corrupt-frame policy differentially across its
// two delivery methods:
//
//   - neither Read nor WriteTo panics;
//   - any failure wraps ErrBadFrame (io.ErrUnexpectedEOF marks honest
//     truncation of the final frame, which the format cannot distinguish
//     from a short wire);
//   - both deliver the identical byte prefix and agree on whether the
//     stream is acceptable — the zero-copy WriteTo path must never deliver
//     bytes the Read path would reject, or vice versa.
//
// Seeds come from the chaos suite's failure modes: truncation, bit flips
// in header and payload, and garbage splices (testdata/fuzz).
func FuzzReaderCorruptStream(f *testing.F) {
	wire := corruptSeedWire(f)
	f.Add(wire)
	f.Add(wire[:len(wire)/2])
	f.Add([]byte{})
	flipped := append([]byte(nil), wire...)
	flipped[12] ^= 0x40 // CRC byte of the first frame
	f.Add(flipped)
	// A stream that ends mid-header: valid blocks followed by the first 7
	// bytes of another frame header (headerSize is 16). Exercises the
	// header-read truncation path rather than payload truncation.
	midHeader := append(append([]byte(nil), wire...), wire[:7]...)
	f.Add(midHeader)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		seqOut, seqErr := io.ReadAll(r)

		wr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var sink bytes.Buffer
		_, wtErr := wr.WriteTo(&sink)
		wtOut := sink.Bytes()
		if len(wtOut) == 0 {
			wtOut = nil // as io.ReadAll reports nothing delivered
		}

		for name, err := range map[string]error{"Read": seqErr, "WriteTo": wtErr} {
			if err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
				continue
			}
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s failed without wrapping ErrBadFrame: %v", name, err)
			}
		}
		if !bytes.Equal(seqOut, wtOut) {
			t.Fatalf("delivery methods disagree on delivered bytes: Read %d, WriteTo %d", len(seqOut), len(wtOut))
		}
		if (seqErr == nil) != (wtErr == nil) {
			t.Fatalf("delivery methods disagree on acceptability: Read err=%v, WriteTo err=%v", seqErr, wtErr)
		}
	})
}
