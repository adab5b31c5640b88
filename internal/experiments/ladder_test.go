package experiments_test

import (
	"bytes"
	"io"
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
	compress16 := ladder[2].Codec.Compress(nil, src[:128<<10])
	compress256 := ladder[3].Codec.Compress(nil, src[:128<<10])
	if len(compress256) >= len(compress16) {
		t.Fatalf("MEDIUM+ (%d) should out-compress MEDIUM- (%d)", len(compress256), len(compress16))
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
	ms, profiles, err := experiments.CalibrateLadder(experiments.ExtendedLadder(), 1<<20)
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

func TestCalibrateLadderRejectsInvalid(t *testing.T) {
	if _, _, err := experiments.CalibrateLadder(nil, 1<<20); err == nil {
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
