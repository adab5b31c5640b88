package experiments_test

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"adaptio/internal/cloudsim"
	"adaptio/internal/compress"
	"adaptio/internal/compress/flatecodec"
	"adaptio/internal/corpus"
	"adaptio/internal/experiments"
	"adaptio/internal/stream"
	"adaptio/internal/vclock"
)

// extendedRoundTrip writes src through a Writer on the six-level ladder —
// feed drives the writes — and checks that a Reader gives it back. DEFLATE is
// not a default receive-path codec, so the test registers it, as any process
// decoding the extended ladder must.
func extendedRoundTrip(t *testing.T, cfg stream.WriterConfig, src []byte, feed func(*stream.Writer)) stream.Stats {
	t.Helper()
	compress.Register(flatecodec.Codec{})
	cfg.Ladder = experiments.ExtendedLadder()
	var wire bytes.Buffer
	w, err := stream.NewWriter(&wire, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := stream.NewReader(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := io.ReadAll(r); err != nil || !bytes.Equal(out, src) {
		t.Fatalf("extended-ladder round trip failed: %v", err)
	}
	return w.Stats()
}

func TestExtendedLadderRoundTrip(t *testing.T) {
	ladder := experiments.ExtendedLadder()
	if err := ladder.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ladder) != 6 {
		t.Fatalf("extended ladder has %d levels", len(ladder))
	}
	src := corpus.Generate(corpus.Moderate, 400<<10, 8)
	// Every static level round trips, including the parameterized
	// duplicates sharing a wire codec ID.
	for lvl := range ladder {
		extendedRoundTrip(t, stream.WriterConfig{Static: true, StaticLevel: lvl}, src, func(w *stream.Writer) {
			if _, err := w.Write(src); err != nil {
				t.Fatalf("level %d (%s): %v", lvl, ladder[lvl].Name, err)
			}
		})
	}
	// Deeper search compresses better at the same wire ID.
	shallow := ladder[2].Codec.Compress(nil, src[:128<<10])
	deep := ladder[3].Codec.Compress(nil, src[:128<<10])
	if len(deep) >= len(shallow) {
		t.Fatalf("MEDIUM+ (%d) should out-compress MEDIUM- (%d)", len(deep), len(shallow))
	}
}

func TestExtendedLadderAdaptive(t *testing.T) {
	// The decision model drives the six-level ladder without any change;
	// a mixed-level stream decodes transparently.
	clk := vclock.NewManual()
	src := corpus.Generate(corpus.High, 1<<20, 4)
	st := extendedRoundTrip(t, stream.WriterConfig{Clock: clk, Window: time.Second, BlockSize: 32 << 10}, src, func(w *stream.Writer) {
		for off := 0; off < len(src); off += 16 << 10 {
			if _, err := w.Write(src[off : off+16<<10]); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Second)
		}
	})
	if st.LevelSwitches == 0 {
		t.Fatal("no probing across the extended ladder")
	}
}

func TestCalibrateLadderExtended(t *testing.T) {
	ms, profiles, err := experiments.Calibrate(experiments.ExtendedLadder(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 6 || len(ms) != 6*3 {
		t.Fatalf("extended calibration shape: %d profiles, %d measurements", len(profiles), len(ms))
	}
	if err := cloudsim.ValidateLadder(profiles); err != nil {
		t.Fatal(err)
	}
	// The two lzfast-hc parameterizations must differ: deeper search gets
	// a better ratio on compressible data.
	byLevel := map[string]map[string]float64{}
	for _, m := range ms {
		if byLevel[m.Level] == nil {
			byLevel[m.Level] = map[string]float64{}
		}
		byLevel[m.Level][m.Kind.String()] = m.Ratio
	}
	if byLevel["MEDIUM+"]["HIGH"] >= byLevel["MEDIUM-"]["HIGH"] {
		t.Errorf("MEDIUM+ ratio %.3f not better than MEDIUM- %.3f",
			byLevel["MEDIUM+"]["HIGH"], byLevel["MEDIUM-"]["HIGH"])
	}
}

// TestExtendedLadderStraddlesMedium: A6's two lzfast-hc levels are only
// extra rungs if the default ladder's MEDIUM lies strictly between them, in
// ratio and in speed, on the data where search depth matters. Ratios are
// exact. Speed is the median thread CPU time of interleaved rounds, so a
// neighbour holding the core during one codec's turn does not reorder them.
func TestExtendedLadderStraddlesMedium(t *testing.T) {
	ext := experiments.ExtendedLadder()
	ladder := compress.Ladder{ext[0], ext[2], stream.DefaultLadder()[stream.LevelMedium], ext[3]}
	_, profiles, err := experiments.Calibrate(ladder, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	minus, medium, plus := profiles[1], profiles[2], profiles[3]
	codecs := []compress.Codec{ladder[1].Codec, ladder[2].Codec, ladder[3].Codec}
	for _, kind := range []corpus.Kind{corpus.High, corpus.Moderate} {
		if !(plus.Ratio[kind] < medium.Ratio[kind] && medium.Ratio[kind] < minus.Ratio[kind]) {
			t.Fatalf("%v ratio: MEDIUM- %.4f, MEDIUM %.4f, MEDIUM+ %.4f: not strictly falling",
				kind, minus.Ratio[kind], medium.Ratio[kind], plus.Ratio[kind])
		}
		file, _ := corpus.LoadOrGenerate(kind, 1)
		data := make([]byte, 1<<20)
		if _, err := io.ReadFull(corpus.NewLoopReader(file), data); err != nil {
			t.Fatal(err)
		}
		cpu := compressCPU(codecs, data, 7)
		if !(cpu[0] < cpu[1] && cpu[1] < cpu[2]) {
			t.Errorf("%v CPU per MiB: MEDIUM- %v, MEDIUM %v, MEDIUM+ %v: not strictly rising", kind, cpu[0], cpu[1], cpu[2])
		}
	}
}

// compressCPU returns each codec's median thread CPU time to compress data
// block by block over rounds rounds. The codecs take turns within a round,
// and each round starts one codec later than the last.
func compressCPU(codecs []compress.Codec, data []byte, rounds int) []time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const block = stream.DefaultBlockSize
	out := make([]byte, 0, 2*len(data))
	times := make([][]time.Duration, len(codecs))
	for r := 0; r < rounds; r++ {
		for i := range codecs {
			c := (r + i) % len(codecs)
			out = out[:0]
			start := threadCPU()
			for off := 0; off < len(data); off += block {
				out = codecs[c].Compress(out, data[off:min(off+block, len(data))])
			}
			times[c] = append(times[c], threadCPU()-start)
		}
	}
	med := make([]time.Duration, len(codecs))
	for c, ts := range times {
		slices.Sort(ts)
		med[c] = ts[len(ts)/2]
	}
	return med
}

func TestCalibrateLadderRejectsInvalid(t *testing.T) {
	if _, _, err := experiments.Calibrate(nil, 1<<20); err == nil {
		t.Fatal("nil ladder accepted")
	}
}

func TestAblationLadder(t *testing.T) {
	rows, err := experiments.AblationLadder(testVolume, 2011)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*4 {
		t.Fatalf("expected 8 rows, got %d", len(rows))
	}
	// Structural sanity: positive times, both ladders complete every
	// scenario. (Which ladder wins is machine-dependent — that question
	// is exactly what the ablation reports.)
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Errorf("%s/%s: non-positive completion", r.Ladder, r.Scenario)
		}
	}
	out := experiments.RenderLadder(rows)
	for _, want := range []string{"A6", "default-4", "extended-6", "HIGH/3conns"} {
		if !strings.Contains(out, want) {
			t.Errorf("A6 render missing %q", want)
		}
	}
}
