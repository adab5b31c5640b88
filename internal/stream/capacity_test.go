package stream

import (
	"bytes"
	"io"
	"testing"

	"adaptio/internal/block"
	"adaptio/internal/block/blocktest"
	"adaptio/internal/corpus"
)

// TestPendingBlockFollowsTraffic pins what a writer holds between frames in
// every mode that cuts blocks — inline, batching a multi-block Write, a
// private worker pool and a shared EncodePool: a fresh writer's pending
// block is small, a full block is followed by a full-size one, and a
// flushed 1 KiB read leaves at most the arena's 16 KiB class held, however
// large the block before it was. Between frames the pending block is the one
// arena buffer the writer holds: every frame has given its buffers back.
// Only capacity moves: the stream still decodes to what went in.
func TestPendingBlockFollowsTraffic(t *testing.T) {
	blocktest.Track(t)
	const small, bound = 1 << 10, 16 << 10
	bulk := corpus.Generate(corpus.Moderate, 3*DefaultBlockSize, 3)
	pool := NewEncodePool(2)
	defer pool.Close()
	modes := []struct {
		name string
		open func(io.Writer, WriterConfig) *Writer
	}{
		{"inline", func(dst io.Writer, cfg WriterConfig) *Writer { return newWriterAt(t, 1, dst, cfg) }},
		{"batched", func(dst io.Writer, cfg WriterConfig) *Writer { return newWriterAt(t, sharedInFlight, dst, cfg) }},
		{"private-pool", func(dst io.Writer, cfg WriterConfig) *Writer { return mustParallelWriter(t, dst, cfg, 2) }},
		{"shared-pool", func(dst io.Writer, cfg WriterConfig) *Writer {
			cfg.Pool = pool
			return mustWriter(t, dst, cfg)
		}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			var wire bytes.Buffer
			gets, releases, _ := block.Stats()
			w := m.open(&wire, WriterConfig{Static: true, StaticLevel: LevelLight})
			var sent []byte
			held := func(when string, atMost int) {
				t.Helper()
				if c := cap(w.blk.B); c > atMost {
					t.Errorf("%s: pending block capacity %d, want at most %d", when, c, atMost)
				}
				if g, r, _ := block.Stats(); (g-gets)-(r-releases) != 1 {
					t.Errorf("%s: the writer holds %d arena buffers, want only its pending block", when, (g-gets)-(r-releases))
				}
			}
			smallFlush := func(when string) {
				t.Helper()
				msg := bulk[:small]
				if _, err := w.ReadDirect(bytes.NewReader(msg)); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				sent = append(sent, msg...)
				held(when, bound)
			}
			full := func(when string, p []byte) {
				t.Helper()
				if _, err := w.Write(p); err != nil {
					t.Fatal(err)
				}
				sent = append(sent, p...)
				if c := cap(w.blk.B); c < DefaultBlockSize {
					t.Errorf("%s: pending block capacity %d after a full block, want at least %d", when, c, DefaultBlockSize)
				}
			}

			held("fresh writer", bound)
			smallFlush("first 1 KiB")
			full("one block", bulk[:DefaultBlockSize])
			smallFlush("1 KiB after a full block")
			// Three blocks in one Write: the batched writer encodes two on its workers.
			full("three blocks", bulk)
			smallFlush("1 KiB after three blocks")
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			out, err := io.ReadAll(mustReader(t, &wire))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, sent) {
				t.Fatal("round trip mismatch")
			}
		})
	}
}
