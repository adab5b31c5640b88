package experiments

import (
	"testing"

	"adaptio/internal/corpus"
	"adaptio/internal/stream"
)

// TestCompressBlocksAllocatesNothing pins Calibrate's timed compress loop to
// the codecs' own work: with the room measureCodec gives it, no level of the
// default ladder allocates inside the loop on any kind, so neither the
// allocator nor the collector lands in a measured MB/s.
func TestCompressBlocksAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const block = stream.DefaultBlockSize
	for _, kind := range corpus.Kinds() {
		data := corpus.Generate(kind, 2*block+1000, 1)
		comp := make([]byte, 0, compressRoom(len(data), block))
		blocks := make([][]byte, 0, 3)
		for _, lvl := range stream.DefaultLadder() {
			run := func() { compressBlocks(lvl.Codec, data, block, comp, blocks) }
			run() // the codecs' pools fill on first use
			if n := testing.AllocsPerRun(2, run); n != 0 {
				t.Errorf("%s on %s: the timed loop allocates %.0f times, want 0", lvl.Name, kind, n)
			}
		}
	}
}
