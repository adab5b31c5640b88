package stream

import (
	"bytes"
	"io"
	"testing"
	"time"

	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/vclock"
)

// recordingPolicy is a core.WindowPolicy that scripts levels and records
// what the writer fed it.
type recordingPolicy struct {
	levels  []int // level to return per ObserveWindow call
	windows []core.Window
}

func (r *recordingPolicy) Level() int {
	if len(r.levels) == 0 {
		return 0
	}
	return r.levels[0]
}

func (r *recordingPolicy) Observe(rate float64) int {
	return r.ObserveWindow(core.Window{Rate: rate})
}

func (r *recordingPolicy) ObserveWindow(w core.Window) int {
	r.windows = append(r.windows, w)
	return r.levels[min(len(r.windows), len(r.levels)-1)]
}

func TestWriterPolicyDrivesLevels(t *testing.T) {
	clk := vclock.NewManual()
	pol := &recordingPolicy{levels: []int{0, 1, 2, 2, 1}}
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{
		Clock: clk, Window: time.Second, BlockSize: 16 << 10, Decider: pol,
	})
	if w.Level() != 0 {
		t.Fatalf("initial level = %d, want the policy's Level() = 0", w.Level())
	}
	src := corpus.Generate(corpus.Moderate, 256<<10, 3)
	for off := 0; off < len(src); off += 16 << 10 {
		if _, err := w.Write(src[off : off+16<<10]); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(pol.windows) == 0 {
		t.Fatal("policy was never observed")
	}
	// The writer must have followed the script: levels 1 and 2 both saw
	// blocks, and the policy received real window stats.
	st := w.Stats()
	if st.BlocksPerLevel[1] == 0 || st.BlocksPerLevel[2] == 0 {
		t.Fatalf("blocks per level = %v, want levels 1 and 2 used", st.BlocksPerLevel)
	}
	var app int64
	for i, win := range pol.windows {
		app += win.AppBytes
		if win.AppBytes > 0 && win.WireBytes == 0 {
			t.Fatalf("window %d: app bytes %d but zero wire bytes reported", i, win.AppBytes)
		}
		if win.Guest != nil {
			t.Fatalf("window %d: the writer has no guest metrics to report", i)
		}
	}
	if app == 0 {
		t.Fatal("policy saw zero application bytes")
	}
	// Round trip: mixed-level stream must still decode.
	out, err := io.ReadAll(mustReader(t, &wire))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("policy-driven stream round trip mismatch")
	}
}

// wild returns levels far outside the ladder, alternating above and below.
type wild struct{ observes int }

func (o *wild) Level() int { return 0 }
func (o *wild) Observe(float64) int {
	o.observes++
	if o.observes%2 == 0 {
		return -5
	}
	return 99
}

// wildWindow is wild as a core.WindowPolicy.
type wildWindow struct{ wild }

func (o *wildWindow) ObserveWindow(w core.Window) int { return o.Observe(w.Rate) }

// wildDecider is wild as a full core.Decider, shaped like the benchmark's
// timing shim: it embeds the interface — here around a policy that is
// itself a WindowPolicy — and overrides Observe(rate).
type wildDecider struct {
	core.Decider
	wild
}

func (o *wildDecider) Level() int               { return o.wild.Level() }
func (o *wildDecider) Observe(rate float64) int { return o.wild.Observe(rate) }

// TestWriterClampsOutOfRangeLevels: whatever kind of policy returns a level
// outside the ladder, the writer clamps instead of indexing the ladder with
// it, and a policy that is not a WindowPolicy gets exactly one Observe(rate)
// per non-final window.
func TestWriterClampsOutOfRangeLevels(t *testing.T) {
	plain, win := &wild{}, &wildWindow{}
	dec := &wildDecider{Decider: core.MustNewPolicy(core.PolicyBandit, core.Config{Levels: 4})}
	for _, tc := range []struct {
		name     string
		policy   core.Policy
		observes *int
	}{
		{"policy", plain, &plain.observes},
		{"window-policy", win, &win.observes},
		{"decider", dec, &dec.observes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewManual()
			var wire bytes.Buffer
			windows := 0
			w := mustWriter(t, &wire, WriterConfig{
				Clock: clk, Window: time.Second, BlockSize: 8 << 10, Decider: tc.policy,
				OnWindow: func(ws WindowStat) {
					windows++
					if ws.NextLevel < 0 || ws.NextLevel >= len(DefaultLadder()) {
						t.Errorf("window %d: next level %d outside the ladder", windows, ws.NextLevel)
					}
				},
			})
			src := corpus.Generate(corpus.Low, 64<<10, 5)
			for off := 0; off < len(src); off += 8 << 10 {
				if _, err := w.Write(src[off : off+8<<10]); err != nil {
					t.Fatal(err)
				}
				clk.Advance(time.Second)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if *tc.observes != windows-1 {
				t.Fatalf("policy observed %d times over %d windows, want one per non-final window", *tc.observes, windows)
			}
			out, err := io.ReadAll(mustReader(t, &wire))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, src) {
				t.Fatal("round trip mismatch with clamped levels")
			}
		})
	}
}

func TestWriterStaticAndDeciderMutuallyExclusive(t *testing.T) {
	var wire bytes.Buffer
	_, err := NewWriter(&wire, WriterConfig{Static: true, Decider: &recordingPolicy{}})
	if err == nil {
		t.Fatal("NewWriter accepted Static together with Decider")
	}
}

func TestWriterBadInitialLevel(t *testing.T) {
	var wire bytes.Buffer
	for name, cfg := range map[string]WriterConfig{
		"policy": {Decider: &recordingPolicy{levels: []int{42}}},
		"static": {Static: true, StaticLevel: 42},
	} {
		if _, err := NewWriter(&wire, cfg); err == nil {
			t.Errorf("%s: NewWriter accepted a starting level outside the ladder", name)
		}
	}
}
