package stream

import (
	"bytes"
	"io"
	"testing"

	"adaptio/internal/corpus"
	"adaptio/internal/faultio"
)

// TestWriterToleratesShortWriteTransport: a transport that reports short
// counts with nil errors (POSIX write(2) semantics, injected by faultio)
// must not corrupt the stream — writeFull resends the tail.
func TestWriterToleratesShortWriteTransport(t *testing.T) {
	payload := corpus.Generate(corpus.High, 256<<10, 5)
	var wire bytes.Buffer
	fw := faultio.NewWriter(&wire, faultio.Config{Seed: 77, PartialWrite: 0.8})
	w, err := NewWriter(fw, WriterConfig{Static: true, StaticLevel: LevelLight, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&wire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("short-write transport corrupted the stream")
	}
}
