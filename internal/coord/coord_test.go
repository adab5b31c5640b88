package coord

import (
	"math"
	"strings"
	"testing"

	"adaptio/internal/core"
	"adaptio/internal/obs"
)

func testConfig(t *testing.T, mut func(*Config)) Config {
	t.Helper()
	cfg := Config{Levels: 4}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the error; "" = valid
	}{
		{"defaults", nil, ""},
		{"no levels", func(c *Config) { c.Levels = 0 }, "4-level ladder"},
		{"other ladder", func(c *Config) { c.Levels = 6 }, "4-level ladder"},
		{"negative budget", func(c *Config) { c.BudgetBytesPerSec = -1 }, "negative budget"},
		{"NaN budget", func(c *Config) { c.BudgetBytesPerSec = math.NaN() }, "non-finite budget"},
		{"infinite budget", func(c *Config) { c.BudgetBytesPerSec = math.Inf(1) }, "non-finite budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(testConfig(t, tc.mut))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("New: unexpected error %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestUnusableWeightCountsAsOne: a weight that is not a positive finite
// number joins the fleet at weight 1, so the weight sum stays finite while
// the stream is registered and returns to zero once it detaches.
func TestUnusableWeightCountsAsOne(t *testing.T) {
	for _, w := range []float64{0, -2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := MustNew(Config{Levels: 4})
		s := c.Register(StreamConfig{Weight: w})
		c.mu.Lock()
		sum := c.sumWeights
		c.mu.Unlock()
		if s.weight != 1 || sum != 1 {
			t.Errorf("weight %v: stream weight %v, fleet sum %v; want 1 and 1", w, s.weight, sum)
		}
		s.Detach()
		c.mu.Lock()
		sum = c.sumWeights
		c.mu.Unlock()
		if sum != 0 {
			t.Errorf("weight %v: fleet sum %v after detach, want 0", w, sum)
		}
	}
}

// TestSharesSplitTheBudgetAtAnyWeights: two equal streams split the budget
// evenly after a far heavier sibling detaches, and at the float64 extremes.
// The parent kept the weight sum by subtraction, which the heavy sibling's
// rounding left at zero (each stream then took the whole budget) or off by a
// part in 1e5, and let two maximal weights overflow it (NaN shares).
func TestSharesSplitTheBudgetAtAnyWeights(t *testing.T) {
	for _, tc := range []struct{ pair, gone float64 }{
		{1, 1e17}, {1e-6, 1e6}, {math.MaxFloat64, 0}, {math.SmallestNonzeroFloat64, 0},
	} {
		c := MustNew(Config{Levels: 4, BudgetBytesPerSec: 100})
		c.Register(StreamConfig{Weight: tc.pair})
		c.Register(StreamConfig{Weight: tc.pair})
		if tc.gone != 0 {
			c.Register(StreamConfig{Weight: tc.gone}).Detach()
		}
		c.mu.Lock()
		for _, s := range c.streams {
			if share := c.shareLocked(s.weight); !(math.Abs(share-50) <= 50*1e-12) {
				t.Errorf("weights %v, %v (and %v detached): share %v, want 50", tc.pair, tc.pair, tc.gone, share)
			}
		}
		c.mu.Unlock()
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := MustNew(Config{Levels: 4})
	if got := c.cfg.BudgetBytesPerSec; got != DefaultBudgetBytesPerSec {
		t.Fatalf("budget = %v, want default %v", got, DefaultBudgetBytesPerSec)
	}
}

// drive feeds n windows where the achieved rate is whatever the stream's
// level would plausibly sustain under the given wire share: the closed loop
// the coordinator sees in production, on data that matches the priors.
func drive(s *Stream, n int, shareBps float64) int {
	lvl := s.Level()
	for i := 0; i < n; i++ {
		rate := min(shareBps/ratioPrior[lvl], compBytesPerSec[lvl])
		app := int64(rate * 2) // 2s windows
		wire := int64(float64(app) * ratioPrior[lvl])
		lvl = s.ObserveWindow(core.Window{Rate: rate, AppBytes: app, WireBytes: wire})
	}
	return lvl
}

func TestNetBoundStreamClimbsToOptimalLevel(t *testing.T) {
	// 10 MB/s share: E(0)=10, E(1)=min(22.2,104)=22.2, E(2)=min(25,71)=25,
	// E(3)=min(30.3,8.9)=8.9 — level 2 is optimal and the stream should
	// walk there one hysteresis-gated step at a time, then hold.
	c := MustNew(Config{Levels: 4, BudgetBytesPerSec: 10e6})
	s := c.Register(StreamConfig{})
	lvl := drive(s, 60, 10e6)
	if lvl != 2 {
		t.Fatalf("level after 60 windows = %d, want 2", lvl)
	}
	if got := c.m.switches.Value(); got != 2 {
		t.Fatalf("switches = %d, want exactly 2 (one per step, no wandering)", got)
	}
	if got := c.m.flaps.Value(); got != 0 {
		t.Fatalf("flaps = %d, want 0 in a stable environment", got)
	}
}

func TestFastLinkStaysUncompressed(t *testing.T) {
	// 500 MB/s share: E(0)=500 beats every compressed level (comp caps
	// at 104). The stream must never leave level 0.
	c := MustNew(Config{Levels: 4, BudgetBytesPerSec: 500e6})
	s := c.Register(StreamConfig{})
	if lvl := drive(s, 40, 500e6); lvl != 0 {
		t.Fatalf("level = %d, want 0 on an uncontended fast link", lvl)
	}
	if got := c.m.switches.Value(); got != 0 {
		t.Fatalf("switches = %d, want 0", got)
	}
}

func TestHysteresisDelaysMoves(t *testing.T) {
	c := MustNew(Config{Levels: 4, BudgetBytesPerSec: 10e6})
	s := c.Register(StreamConfig{})
	for i := 0; i < HysteresisWindows-1; i++ {
		if lvl := drive(s, 1, 10e6); lvl != 0 {
			t.Fatalf("window %d: level = %d, want 0 before hysteresis expires", i, lvl)
		}
	}
	if lvl := drive(s, 1, 10e6); lvl != 1 {
		t.Fatalf("level after %d windows = %d, want first step to 1", HysteresisWindows, lvl)
	}
}

func TestWeightedSharesFavorHighPriorityTenant(t *testing.T) {
	// Budget 40 MB/s split across gold (weight 3) and silver (weight 1):
	// gold's 30 MB/s share keeps E(0)=30 > E(1)=min(66,104)*... wait —
	// E(1)=66 still wins; both compress, but gold's share is 3x silver's,
	// which we can read back through the share-dependent estimates: drive
	// each in its own closed loop and compare achieved app rates.
	c := MustNew(Config{Levels: 4, BudgetBytesPerSec: 40e6})
	gold := c.Register(StreamConfig{Weight: 3, Tenant: "gold"})
	silver := c.Register(StreamConfig{Weight: 1, Tenant: "silver"})
	if gold.tenant != "gold" || gold.weight != 3 {
		t.Fatalf("gold handle carries %q/%v, want gold/3", gold.tenant, gold.weight)
	}
	goldLvl := drive(gold, 40, 30e6)
	silverLvl := drive(silver, 40, 10e6)
	// Silver (10 MB/s share) optimizes at level 2 (E=25); gold (30 MB/s)
	// at level 1 (E=min(66,104)=66 vs E(2)=min(75,71)=71 — within margin
	// pressure; accept either 1 or 2 for gold but require a level change
	// for both and a strictly higher estimated goodput for gold.
	if silverLvl != 2 {
		t.Fatalf("silver level = %d, want 2", silverLvl)
	}
	if goldLvl == 0 {
		t.Fatalf("gold level = 0, want compressed under a shared budget")
	}
	c.mu.Lock()
	gShare, sShare := c.shareLocked(gold.weight), c.shareLocked(silver.weight)
	c.mu.Unlock()
	if gShare != 3*sShare {
		t.Fatalf("share split = %v vs %v, want 3:1", gShare, sShare)
	}
}

func TestObsMetricNamesRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	c := MustNew(Config{Levels: 4, Obs: reg.Scope("coord")})
	s := c.Register(StreamConfig{})
	s.ObserveWindow(core.Window{Rate: 1e6, AppBytes: 2e6, WireBytes: 2e6})
	for _, name := range []string{
		"coord.goodput.bytes", "coord.level.flaps", "coord.level.switches",
		"coord.streams.active", "coord.streams.total",
	} {
		if reg.Get(name) == nil {
			t.Errorf("metric %q not registered", name)
		}
	}
	if got := reg.Scope("coord").Counter("goodput.bytes").Value(); got != 2e6 {
		t.Fatalf("coord.goodput.bytes = %d, want 2e6", got)
	}
}

func TestFlapCountedOnForcedReversal(t *testing.T) {
	reg := obs.NewRegistry()
	c := MustNew(Config{Levels: 4, BudgetBytesPerSec: 100e6, Obs: reg.Scope("coord")})
	s := c.Register(StreamConfig{})
	// Siblings join: the share collapses from 100 MB/s to 10 MB/s and the
	// stream climbs toward heavier compression, one step per
	// HysteresisWindows: level 2 at window 6.
	var siblings []*Stream
	for i := 0; i < 9; i++ {
		siblings = append(siblings, c.Register(StreamConfig{}))
	}
	lvl := drive(s, 7, 10e6)
	if lvl != 2 {
		t.Fatalf("setup: level = %d under a 10 MB/s share, want climb to 2", lvl)
	}
	// Siblings leave: the share springs back to 100 MB/s, where lighter
	// compression wins (comp speed caps level 2 at 71 MB/s but level 1
	// sustains 104, well past ImprovementMargin), so the stream steps back
	// down at window 10 — a direction reversal four windows after the climb,
	// inside FlapWindow, that must be counted.
	for _, sib := range siblings {
		sib.Detach()
	}
	lvl = drive(s, 10, 100e6)
	if lvl != 1 {
		t.Fatalf("stream never stepped back down; level = %d, want 1", lvl)
	}
	if got := reg.Scope("coord").Counter("level.flaps").Value(); got != 1 {
		t.Fatalf("coord.level.flaps = %d after one forced reversal inside the flap window, want 1", got)
	}
}
