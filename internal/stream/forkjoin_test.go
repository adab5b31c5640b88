package stream

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"adaptio/internal/compress"
	"adaptio/internal/corpus"
	"adaptio/internal/vclock"
)

// The bare writer batches: a Write that carries several whole blocks encodes
// up to GOMAXPROCS of them side by side on a pipeline of its own
// (Writer.flushBlock). These tests hold that to "the same writer, sooner":
// whatever the batch width, the wire bytes, the counters and the decision
// windows are those of the GOMAXPROCS 1 writer.

// newWriterAt builds a Writer as a process running at the given GOMAXPROCS
// would: the batch width is read once, in NewWriter.
func newWriterAt(t *testing.T, procs int, dst io.Writer, cfg WriterConfig) *Writer {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return mustWriter(t, dst, cfg)
}

// forkMatrixSource is text with stripes of noise: blocks the codecs shrink,
// blocks the entropy probe gives up on, and blocks that hold some of each.
func forkMatrixSource(blockSize int) []byte {
	var src []byte
	for i := 0; i < 4; i++ {
		src = append(src, corpus.Generate(corpus.Moderate, 5*blockSize+blockSize/3, uint64(i))...)
		src = append(src, incompressible(2*blockSize+blockSize/2, int64(i))...)
	}
	return src
}

// forkRun is everything a writer lets its owner see of one stream.
type forkRun struct {
	wire    []byte
	stats   Stats
	windows []WindowStat
}

// runForkCase feeds src in writes of the given size to a writer built at
// procs. The clock moves only between calls, and an empty Write after each
// move closes any window that has come due, so every decision falls between
// two calls and the scripted levels land on the same bytes at any width.
func runForkCase(t *testing.T, procs int, src []byte, blockSize, size, level int, scripted bool) forkRun {
	t.Helper()
	var run forkRun
	var wire bytes.Buffer
	clk := vclock.NewManual()
	cfg := WriterConfig{
		Clock: clk, Window: time.Second, BlockSize: blockSize,
		OnWindow: func(ws WindowStat) { run.windows = append(run.windows, ws) },
	}
	if scripted {
		var levels []int
		for i := 0; i < 64; i++ {
			levels = append(levels, (level+i)%len(DefaultLadder()))
		}
		cfg.Decider = &recordingPolicy{levels: levels}
	} else {
		cfg.Static, cfg.StaticLevel = true, level
	}
	w := newWriterAt(t, procs, &wire, cfg)
	writes := min(max(3, (12*blockSize+size-1)/size), 200)
	for i := 0; i < writes; i++ {
		off := (i * size) % (len(src) - size)
		if n, err := w.Write(src[off : off+size]); n != size || err != nil {
			t.Fatalf("write %d: %d of %d bytes, %v", i, n, size, err)
		}
		clk.Advance(400 * time.Millisecond)
		if _, err := w.Write(nil); err != nil {
			t.Fatal(err)
		}
	}
	if p := w.pipe; p != nil && p.nextWrite != p.nextSub {
		t.Fatalf("%d frames in flight after Write returned", p.nextSub-p.nextWrite)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run.wire, run.stats = wire.Bytes(), w.Stats()
	return run
}

// TestForkJoinMatrix: write sizes around the block size x every level x
// static and scripted policy, at this run's GOMAXPROCS (the CI runs -cpu
// 1,2,4) and at the full batch width, against the GOMAXPROCS 1 writer.
func TestForkJoinMatrix(t *testing.T) {
	const blockSize = 4 << 10
	src := forkMatrixSource(blockSize)
	for _, size := range []int{1, blockSize - 1, blockSize, 2 * blockSize, 2*blockSize + 1, 5 * blockSize, 11 * blockSize} {
		for level := range DefaultLadder() {
			for _, scripted := range []bool{false, true} {
				t.Run(fmt.Sprintf("size%d/level%d/scripted=%v", size, level, scripted), func(t *testing.T) {
					want := runForkCase(t, 1, src, blockSize, size, level, scripted)
					checkLedger(t, want)
					for _, procs := range []int{runtime.GOMAXPROCS(0), sharedInFlight} {
						got := runForkCase(t, procs, src, blockSize, size, level, scripted)
						if !bytes.Equal(got.wire, want.wire) {
							t.Errorf("GOMAXPROCS %d: wire bytes differ from the GOMAXPROCS 1 writer's (%d vs %d bytes)",
								procs, len(got.wire), len(want.wire))
						}
						if !reflect.DeepEqual(got.stats, want.stats) {
							t.Errorf("GOMAXPROCS %d: stats\n%+v\nwant\n%+v", procs, got.stats, want.stats)
						}
						if !reflect.DeepEqual(got.windows, want.windows) {
							t.Errorf("GOMAXPROCS %d: %d windows, GOMAXPROCS 1 saw %d, or they differ",
								procs, len(got.windows), len(want.windows))
						}
					}
				})
			}
		}
	}
}

// wireFrames returns the header of every frame on a wire, in order.
func wireFrames(t *testing.T, wire []byte) []header {
	t.Helper()
	var frames []header
	for len(wire) > 0 {
		h, err := parseHeader(wire)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, h)
		wire = wire[headerSize+h.compLen:]
	}
	return frames
}

// checkLedger reconciles a run's counters with its own wire bytes, frame by
// frame: every application byte was staged by Write (one copy), every byte
// of a codec frame was copied once more, and nothing else moved.
func checkLedger(t *testing.T, run forkRun) {
	t.Helper()
	var app, coded, blocks, raw int64
	for _, h := range wireFrames(t, run.wire) {
		blocks++
		app += int64(h.rawLen)
		if h.codecID != compress.IDNone {
			coded += int64(h.rawLen)
		} else {
			raw++
		}
	}
	st := run.stats
	if st.AppBytes != app || st.WireBytes != int64(len(run.wire)) || st.Blocks != blocks {
		t.Errorf("stats %d app bytes, %d wire bytes, %d blocks; the wire holds %d, %d, %d",
			st.AppBytes, st.WireBytes, st.Blocks, app, len(run.wire), blocks)
	}
	if st.CopiedBytes+st.PassthroughBytes != st.AppBytes+coded || st.PassthroughBytes != 0 {
		t.Errorf("copied %d + passthrough %d, want %d app bytes + %d through a codec, none passed through",
			st.CopiedBytes, st.PassthroughBytes, st.AppBytes, coded)
	}
	// (Window wire bytes do not sum to the wire: a block cut by a level
	// switch is emitted after its window's totals are taken.)
	var perLevel, winApp int64
	for _, n := range st.BlocksPerLevel {
		perLevel += n
	}
	for _, ws := range run.windows {
		winApp += ws.AppBytes
	}
	if perLevel != blocks || winApp != app {
		t.Errorf("%d blocks per level, windows hold %d app bytes; want %d, %d", perLevel, winApp, blocks, app)
	}
	if st.ProbeSkips > st.RawFallbacks || st.RawFallbacks > raw {
		t.Errorf("%d probe skips, %d raw fallbacks, %d stored-raw frames", st.ProbeSkips, st.RawFallbacks, raw)
	}
}

// tickingWire is a destination on which every frame takes d of the clock.
type tickingWire struct {
	clk *vclock.Manual
	d   time.Duration
}

func (w *tickingWire) Write(p []byte) (int, error) {
	w.clk.Advance(w.d)
	return len(p), nil
}

// TestLongWriteClosesWindowsBetweenBatches: one Write of 64 blocks on a wire
// that takes a quarter of the window per frame is many decision windows, not
// one however long the call runs: a window closes as soon as a batch ends
// with t elapsed. Every batch is as wide as the writer's batch width, so a
// window holds the four frames of t rounded up to whole batches: sixteen
// windows at widths 1, 2 and 4, eight at width 8.
func TestLongWriteClosesWindowsBetweenBatches(t *testing.T) {
	const blockSize, blocks, perWindow = 4 << 10, 64, 4
	src := corpus.Generate(corpus.Moderate, blocks*blockSize, 5)
	for _, procs := range []int{1, 2, 4, sharedInFlight} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			clk := vclock.NewManual()
			var windows []WindowStat
			pol := &recordingPolicy{levels: []int{LevelLight, LevelMedium, LevelLight, LevelMedium, LevelLight}}
			w := newWriterAt(t, procs, &tickingWire{clk, time.Second}, WriterConfig{
				Clock: clk, Window: perWindow * time.Second, BlockSize: blockSize, Decider: pol,
				OnWindow: func(ws WindowStat) { windows = append(windows, ws) },
			})
			if _, err := w.Write(src); err != nil {
				t.Fatal(err)
			}
			frames := (perWindow + procs - 1) / procs * procs
			if want := blocks / frames; len(windows) != want {
				t.Fatalf("%d windows closed inside one %d-block Write, want %d", len(windows), blocks, want)
			}
			for i, ws := range windows {
				if ws.AppBytes != int64(frames*blockSize) || ws.Elapsed != time.Duration(frames)*time.Second {
					t.Errorf("window %d: %d app bytes in %v, want %d frames' worth", i, ws.AppBytes, ws.Elapsed, frames)
				}
			}
			if st := w.Stats(); st.BlocksPerLevel[LevelLight] == 0 || st.BlocksPerLevel[LevelMedium] == 0 {
				t.Errorf("blocks per level %v: the decisions taken inside the call did not reach its later blocks", st.BlocksPerLevel)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
