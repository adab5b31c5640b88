package stream_test

import (
	"io"
	"testing"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/stream"
)

// TestSerialStreamReleasesAllBuffers asserts the Writer/Reader buffer
// lifecycle contract: after Close and EOF every arena buffer acquired by a
// serial stream has been released.
func TestSerialStreamReleasesAllBuffers(t *testing.T) {
	blocktest.Track(t)
	data := benchBlock(t, 300<<10)
	pipe := &benchPipe{}
	w, err := stream.NewWriter(pipe, staticCfg(stream.LevelLight, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := stream.NewReader(pipe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatal(err)
	}
	// EOF already recycled the reader's buffers; Close must be a no-op.
	r.Close()
}

// TestParallelStreamReleasesAllBuffers asserts the same contract for the
// worker-pool paths: pipeline Writer and ParallelReader, both drained to
// completion and both abandoned mid-stream via Close.
func TestParallelStreamReleasesAllBuffers(t *testing.T) {
	blocktest.Track(t)
	data := benchBlock(t, 500<<10)

	pipe := &benchPipe{}
	w, err := stream.NewWriter(pipe, staticCfg(stream.LevelLight, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), pipe.buf...)

	// Drained to EOF.
	r, err := stream.NewParallelReader(pipe, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// Abandoned mid-stream: Close must reclaim all in-flight frames.
	pipe2 := &benchPipe{}
	pipe2.buf = wire
	r2, err := stream.NewParallelReader(pipe2, 4)
	if err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 4096)
	if _, err := io.ReadFull(r2, small); err != nil {
		t.Fatal(err)
	}
	r2.Close()
}
