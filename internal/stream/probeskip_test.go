package stream

import (
	"bytes"
	"io"
	"testing"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/compress"
	"adaptio/internal/compress/lzfast"
	"adaptio/internal/compress/lzheavy"
	"adaptio/internal/compress/probe"
	"adaptio/internal/corpus"
	"adaptio/internal/obs"
)

// This file pins the stream-level entropy pre-probe property: a block the
// probe judges hopeless is framed bit-identically to a stored-raw block —
// the skip is invisible on the wire — while the ledger records the saved
// work (ProbeSkips) and, on the direct-ingest path, the bytes stay
// zero-copy (passthrough_bytes, not copied_bytes).

// encodeProbe pushes src through mustParallelWriter's writer for cfg and
// workers — via ReadFrom (direct ingest) or Write (staging) — and returns the
// wire bytes and the final stats. probeOff sets the writer's unexported seam of that name: every
// block goes to the codec, which no configuration can ask for.
func encodeProbe(t *testing.T, cfg WriterConfig, workers int, src []byte, direct, probeOff bool) ([]byte, Stats) {
	t.Helper()
	var wire bytes.Buffer
	w := mustParallelWriter(t, &wire, cfg, workers)
	w.probeOff = probeOff
	var err error
	if direct {
		_, err = w.ReadFrom(bytes.NewReader(src))
	} else {
		_, err = w.Write(src)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes(), w.Stats()
}

// TestProbeSkipWireIdenticalToStoredRaw: for incompressible input at a
// compressing level, the probe-skipped wire stream must be byte-identical
// to the same data framed at the identity level (pure stored-raw framing) —
// and to the same level with the probe off, where the codec runs and takes
// the stored-raw fallback itself. One property, all three encoders.
func TestProbeSkipWireIdenticalToStoredRaw(t *testing.T) {
	blocktest.Track(t)
	src := incompressible(300<<10, 17) // spans full and partial blocks
	for lvl := 1; lvl < len(DefaultLadder()); lvl++ {
		skipped, st := encodeProbe(t, WriterConfig{Static: true, StaticLevel: lvl}, 0, src, true, false)
		storedRaw, _ := encodeProbe(t, WriterConfig{Static: true, StaticLevel: LevelNo}, 0, src, true, false)
		if !bytes.Equal(skipped, storedRaw) {
			t.Fatalf("level %d: probe-skipped wire differs from stored-raw framing (%d vs %d bytes)",
				lvl, len(skipped), len(storedRaw))
		}
		codecPath, stDis := encodeProbe(t, WriterConfig{Static: true, StaticLevel: lvl}, 0, src, true, true)
		if !bytes.Equal(skipped, codecPath) {
			t.Fatalf("level %d: probe skip changes the wire bytes vs the codec's own fallback", lvl)
		}
		if st.ProbeSkips != st.Blocks || st.RawFallbacks != st.Blocks {
			t.Fatalf("level %d: ProbeSkips=%d RawFallbacks=%d, want both %d", lvl, st.ProbeSkips, st.RawFallbacks, st.Blocks)
		}
		if stDis.ProbeSkips != 0 || stDis.RawFallbacks != stDis.Blocks {
			t.Fatalf("level %d probe off: ProbeSkips=%d RawFallbacks=%d/%d", lvl, stDis.ProbeSkips, stDis.RawFallbacks, stDis.Blocks)
		}
		// And the frames must still decode.
		out, err := io.ReadAll(mustReader(t, bytes.NewReader(skipped)))
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("level %d: probe-skipped stream does not round-trip: %v", lvl, err)
		}
	}
}

// TestProbeSkipLedger: a skipped block's bytes never cross a user-space
// copy on the direct-ingest path (passthrough, not copied), and the skip is
// visible in both the Stats and the obs counters. Staged bytes (Write) keep
// their one staging copy but still avoid the codec copy. The parallel
// pipeline must account identically to the serial path.
func TestProbeSkipLedger(t *testing.T) {
	blocktest.Track(t)
	src := incompressible(256<<10, 23) // exactly two default blocks

	for _, tc := range []struct {
		name             string
		workers          int
		direct           bool
		copied, passthru int64
	}{
		{"serial-direct", 0, true, 0, int64(len(src))},
		{"serial-staged", 0, false, int64(len(src)), 0},
		{"pipeline-direct", 4, true, 0, int64(len(src))},
		{"pipeline-staged", 4, false, int64(len(src)), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			scope := reg.Scope("test").Scope("stream").Scope("writer")
			cfg := WriterConfig{Static: true, StaticLevel: LevelLight, Obs: scope}
			_, st := encodeProbe(t, cfg, tc.workers, src, tc.direct, false)
			if st.Blocks != 2 || st.ProbeSkips != 2 {
				t.Fatalf("Blocks=%d ProbeSkips=%d, want 2/2", st.Blocks, st.ProbeSkips)
			}
			if st.CopiedBytes != tc.copied {
				t.Errorf("CopiedBytes = %d, want %d", st.CopiedBytes, tc.copied)
			}
			if st.PassthroughBytes != tc.passthru {
				t.Errorf("PassthroughBytes = %d, want %d", st.PassthroughBytes, tc.passthru)
			}
			if v := scope.Counter("probe_skips").Value(); v != 2 {
				t.Errorf("probe_skips counter = %d, want 2", v)
			}
			if v := scope.Counter("copied_bytes").Value(); v != tc.copied {
				t.Errorf("copied_bytes counter = %d, want %d", v, tc.copied)
			}
			if v := scope.Counter("passthrough_bytes").Value(); v != tc.passthru {
				t.Errorf("passthrough_bytes counter = %d, want %d", v, tc.passthru)
			}
		})
	}
}

// TestProbeKeepsCompressibleBlocks: the probe must never divert blocks the
// codecs can shrink — including the JPEG-like Low corpus, whose high
// sampled entropy is rescued by the match probe — so compression ratios are
// untouched on real workloads.
func TestProbeKeepsCompressibleBlocks(t *testing.T) {
	for _, kind := range corpus.Kinds() {
		src := corpus.Generate(kind, 256<<10, 7)
		wire, st := encodeProbe(t, WriterConfig{Static: true, StaticLevel: LevelLight}, 0, src, true, false)
		if st.ProbeSkips != 0 {
			t.Errorf("%s: %d of %d blocks probe-skipped", kind, st.ProbeSkips, st.Blocks)
		}
		out, err := io.ReadAll(mustReader(t, bytes.NewReader(wire)))
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("%s: round trip failed: %v", kind, err)
		}
	}
}

// TestProbeDisabledRunsTheCodec: the writer's verdict is the only entropy
// probe on the stream path. The block here is random except for one 20 KB
// region repeated between the probe's sample windows, so the probe judges it
// hopeless although every codec can shrink it. With the writer's verdict off
// the codec must really run on it — no codec probes behind the writer's back.
func TestProbeDisabledRunsTheCodec(t *testing.T) {
	blocktest.Track(t)
	src := hiddenRepeat(t)
	for lvl := 1; lvl < len(DefaultLadder()); lvl++ {
		_, st := encodeProbe(t, WriterConfig{Static: true, StaticLevel: lvl}, 0, src, true, false)
		if st.ProbeSkips != 1 || st.RawFallbacks != 1 {
			t.Fatalf("level %d probe on: ProbeSkips=%d RawFallbacks=%d, want 1/1", lvl, st.ProbeSkips, st.RawFallbacks)
		}
		wire, st := encodeProbe(t, WriterConfig{Static: true, StaticLevel: lvl}, 0, src, true, true)
		if st.ProbeSkips != 0 || st.RawFallbacks != 0 || len(wire) > len(src)-(15<<10) {
			t.Fatalf("level %d probe off: ProbeSkips=%d RawFallbacks=%d wire=%d of %d bytes; the codec did not run",
				lvl, st.ProbeSkips, st.RawFallbacks, len(wire), len(src))
		}
		out, err := io.ReadAll(mustReader(t, bytes.NewReader(wire)))
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("level %d: round trip failed: %v", lvl, err)
		}
	}
}

// hiddenRepeat returns one default-size block the probe judges hopeless
// although every codec can shrink it: random, except for one 20 KB region
// repeated between the probe's sample windows.
func hiddenRepeat(t *testing.T) []byte {
	t.Helper()
	src := incompressible(DefaultBlockSize, 29)
	copy(src[50<<10:70<<10], src[10<<10:30<<10])
	if !probe.Hopeless(src) {
		t.Fatal("test block is not hopeless to the probe; move the repeat between its sample windows")
	}
	return src
}

// TestCodecsHaveNoHiddenMode: a codec's Compress is its match loop,
// unconditionally. The ladder's codecs and the zero values a caller builds
// by hand are the same encoder — identical bytes, which round-trip — on
// blocks the probe keeps (every corpus kind) and on blocks it condemns
// (uniform random, and the hidden repeat, which each codec must shrink: a
// codec that probed would have emitted it as bare literals).
func TestCodecsHaveNoHiddenMode(t *testing.T) {
	hidden := hiddenRepeat(t)
	blocks := map[string][]byte{
		"uniform-random": incompressible(DefaultBlockSize, 31),
		"hidden-repeat":  hidden,
	}
	for _, kind := range corpus.Kinds() {
		blocks[kind.String()] = corpus.Generate(kind, DefaultBlockSize, 5)
	}
	zero := []compress.Codec{nil, lzfast.Fast{}, lzfast.HC{}, lzheavy.Codec{}}
	ladder := DefaultLadder()
	for lvl := 1; lvl < len(ladder); lvl++ {
		codec := ladder[lvl].Codec
		for name, src := range blocks {
			comp := codec.Compress(nil, src)
			if !bytes.Equal(comp, zero[lvl].Compress(nil, src)) {
				t.Errorf("%s/%s: the ladder's codec and the zero value encode differently", ladder[lvl].Name, name)
			}
			out, err := codec.Decompress(nil, comp, len(src))
			if err != nil || !bytes.Equal(out, src) {
				t.Errorf("%s/%s: round trip failed: %v", ladder[lvl].Name, name, err)
			}
		}
		if n := len(codec.Compress(nil, hidden)); n > len(hidden)-(15<<10) {
			t.Errorf("%s: hidden repeat compressed to %d of %d bytes; the match loop did not run", ladder[lvl].Name, n, len(hidden))
		}
	}
}
