package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func newTestDecider(t *testing.T, cfg Config) *AlgorithmOne {
	t.Helper()
	d, err := NewDecider(cfg)
	if err != nil {
		t.Fatalf("NewDecider(%+v): %v", cfg, err)
	}
	return d
}

// TestNonFiniteAlphaRefused: flag.Float64 parses NaN and Inf. A NaN band
// matches no rate, so Algorithm 1 reverts every window and stays at NO; an
// infinite one matches every rate, so it probes every window. Every policy
// built on the skeleton refuses both at construction.
func TestNonFiniteAlphaRefused(t *testing.T) {
	for _, alpha := range []float64{math.NaN(), math.Inf(1)} {
		for _, name := range []string{PolicyAlgorithmOne, PolicyBandit, PolicyEWMA} {
			if _, err := NewPolicy(name, Config{Levels: 4, Alpha: alpha}); err == nil || !strings.Contains(err.Error(), "non-finite alpha") {
				t.Errorf("NewPolicy(%s, alpha %v) = %v, want a non-finite alpha error", name, alpha, err)
			}
			if _, err := PolicyFactory(name, Config{Levels: 4, Alpha: alpha}); err == nil {
				t.Errorf("PolicyFactory(%s) accepted alpha %v", name, alpha)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewDecider(Config{Levels: 0}); err == nil {
		t.Error("zero levels accepted")
	}
	if _, err := NewDecider(Config{Levels: 4, Alpha: -0.1}); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := NewDecider(Config{Levels: 4, MaxBackoffExp: -1}); err == nil {
		t.Error("negative backoff cap accepted")
	}
	d, err := NewDecider(Config{Levels: 4})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if d.cfg.Alpha != DefaultAlpha {
		t.Errorf("alpha default not applied: %v", d.cfg.Alpha)
	}
}

func TestMustNewDeciderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewDecider(Config{Levels: -1})
}

func TestInitialState(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4})
	if d.Level() != 0 {
		t.Fatalf("initial level = %d, want 0 (Table I: ccl initially 0)", d.Level())
	}
	for i := 0; i < 4; i++ {
		if d.Backoff(i) != 0 {
			t.Fatalf("initial backoff[%d] = %d, want 0", i, d.Backoff(i))
		}
	}
}

// TestFirstCallProbesUp: on the first call pdr is primed with cdr (Table I),
// so |d| = 0 <= alpha*pdr, the zero backoff has expired (c=1 >= 2^0) and inc
// is initially TRUE, so the algorithm probes up to level 1.
func TestFirstCallProbesUp(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4})
	if got := d.Observe(100); got != 1 {
		t.Fatalf("first observation -> level %d, want 1", got)
	}
}

// TestImprovementRewardsLevel: a rate improvement must increment the current
// level's backoff exponent and not change the level (lines 15-18).
func TestImprovementRewardsLevel(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4})
	d.Observe(100)        // probe 0 -> 1
	lvl := d.Observe(200) // +100% at level 1: improvement
	if lvl != 1 {
		t.Fatalf("improvement changed level to %d", lvl)
	}
	if d.Backoff(1) != 1 {
		t.Fatalf("backoff[1] = %d, want 1 after improvement", d.Backoff(1))
	}
}

// TestDegradationReverts: a degradation must reset the level's backoff and
// revert the previous change immediately (lines 19-27), i.e. within one
// window, as the paper emphasizes.
func TestDegradationReverts(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4})
	d.Observe(100)       // level 0 -> 1 (probe up, inc=true)
	lvl := d.Observe(50) // -50%: degradation at level 1
	if lvl != 0 {
		t.Fatalf("degradation at level 1 -> level %d, want revert to 0", lvl)
	}
	if d.Backoff(1) != 0 {
		t.Fatalf("backoff[1] = %d, want 0 after degradation", d.Backoff(1))
	}
}

// TestAlphaToleranceBand: changes within alpha*pdr count as "no change".
func TestAlphaToleranceBand(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4, Alpha: 0.2})
	d.Observe(100) // -> level 1
	// 100 -> 115 is within 20% of pdr=100: "no change". Backoff for level
	// 1 is 0, c=1 >= 2^0, so it probes again (inc=true): level 2.
	if got := d.Observe(115); got != 2 {
		t.Fatalf("stable rate did not probe: level %d, want 2", got)
	}
	// 115 -> 137 is within 20% of 115 (limit 138): still stable, probe to 3.
	if got := d.Observe(137); got != 3 {
		t.Fatalf("stable rate did not probe: level %d, want 3", got)
	}
}

// TestExponentialBackoff verifies the core scheduling property: after k
// consecutive improvements at a level, the next probe needs 2^k stable
// windows (line 6: c >= 2^bck[ccl]).
func TestExponentialBackoff(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4})
	d.Observe(100) // -> level 1 (probe)
	// Three improvements at level 1: backoff exponent reaches 3.
	d.Observe(200)
	d.Observe(400)
	d.Observe(800)
	if d.Backoff(1) != 3 {
		t.Fatalf("backoff[1] = %d, want 3", d.Backoff(1))
	}
	// Now the rate is stable: the next probe must take exactly 2^3 = 8
	// stable windows.
	for i := 1; i < 8; i++ {
		if got := d.Observe(800); got != 1 {
			t.Fatalf("probe fired after only %d stable windows (level %d)", i, got)
		}
	}
	if got := d.Observe(800); got == 1 {
		t.Fatal("probe did not fire after 2^3 stable windows")
	}
}

// TestBackoffResetReenablesProbing: after a degradation resets bck[ccl],
// probes at that level become frequent again (line 21 and §III-A: "optimistic
// switches ... again become more frequent ... in the future").
func TestBackoffResetReenablesProbing(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4})
	d.Observe(100)
	d.Observe(200)
	d.Observe(400) // backoff[1] = 2
	d.Observe(100) // degradation at level 1: revert to 0, bck[1]=0
	if d.Level() != 0 || d.Backoff(1) != 0 {
		t.Fatalf("state after degradation: level=%d bck[1]=%d", d.Level(), d.Backoff(1))
	}
}

// TestProbeDirectionFollowsInc: after a revert from an increase, inc is
// false, so the next optimistic probe goes downward.
func TestProbeDirectionFollowsInc(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4})
	d.Observe(100) // 0 -> 1 probe up, inc=true
	d.Observe(300) // improvement; stay at 1, bck[1]=1
	d.Observe(300) // stable, c=1 < 2^1: no probe
	d.Observe(300) // stable, c=2 >= 2^1: probe up (inc=true) -> 2
	if d.Level() != 2 {
		t.Fatalf("expected probe to 2, at %d", d.Level())
	}
	d.Observe(150) // degradation at 2: revert to 1, inc=false
	if d.Level() != 1 {
		t.Fatalf("expected revert to 1, at %d", d.Level())
	}
	d.Observe(300) // improvement back at 1 (150->300): bck[1] now 2, stay
	if d.Backoff(1) != 2 {
		t.Fatalf("backoff[1] = %d, want 2", d.Backoff(1))
	}
	d.Observe(300) // stable c=1 < 2^2
	d.Observe(300) // stable c=2 < 2^2
	d.Observe(300) // stable c=3 < 2^2
	d.Observe(300) // stable c=4 >= 2^2: probe with inc=false -> down to 0
	if d.Level() != 0 {
		t.Fatalf("probe after revert went to %d, want 0 (downward)", d.Level())
	}
}

// TestEdgeFlipAtBottom: a probe below level 0 flips to probe upward.
func TestEdgeFlipAtBottom(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4})
	d.Observe(100) // 0 -> 1, inc=true
	d.Observe(50)  // degradation: revert to 0, inc=false
	// Stable windows at level 0: probe direction is down, flips to up.
	lvl := d.Observe(50)
	if lvl != 1 {
		t.Fatalf("edge probe at level 0 went to %d, want flip up to 1", lvl)
	}
}

// TestEdgeRevertStaysAtBottom: a degradation at level 0 with inc=true would
// revert to -1; it must stay at 0 and not spuriously probe upward.
func TestEdgeRevertStaysAtBottom(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 1})
	d.Observe(100)
	lvl := d.Observe(10) // heavy degradation, nowhere to go
	if lvl != 0 {
		t.Fatalf("revert at single-level ladder moved to %d", lvl)
	}
}

// TestEdgeFlipAtTop: probes beyond the top level flip to probe downward.
func TestEdgeFlipAtTop(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 3})
	d.Observe(100) // -> 1
	d.Observe(100) // stable -> probe up -> 2 (top)
	if d.Level() != 2 {
		t.Fatalf("setup failed, at level %d", d.Level())
	}
	lvl := d.Observe(100) // stable at top: probe up flips to down -> 1
	if lvl != 1 {
		t.Fatalf("edge probe at top went to %d, want 1", lvl)
	}
}

// TestSingleLevelLadderNeverMoves: with n=1 every decision must return 0.
func TestSingleLevelLadderNeverMoves(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 1})
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if lvl := d.Observe(rnd.Float64() * 1000); lvl != 0 {
			t.Fatalf("single-level ladder returned %d", lvl)
		}
	}
}

// TestLevelAlwaysInRange is the safety property: whatever rate sequence is
// observed, the selected level stays within [0, n).
func TestLevelAlwaysInRange(t *testing.T) {
	prop := func(levels uint8, seed int64, n uint16) bool {
		nLevels := int(levels)%8 + 1
		d := MustNewDecider(Config{Levels: nLevels})
		rnd := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			var rate float64
			switch rnd.Intn(4) {
			case 0:
				rate = 0
			case 1:
				rate = rnd.Float64() * 1e9
			case 2:
				rate = 100
			default:
				rate = 100 * (1 + rnd.NormFloat64()*0.3)
				if rate < 0 {
					rate = 0
				}
			}
			lvl := d.Observe(rate)
			if lvl < 0 || lvl >= nLevels {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroRateStream: an all-zero rate stream (stalled I/O) must not panic,
// divide by zero, or leave the valid range.
func TestZeroRateStream(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4})
	for i := 0; i < 100; i++ {
		lvl := d.Observe(0)
		if lvl < 0 || lvl > 3 {
			t.Fatalf("level %d out of range on zero rates", lvl)
		}
	}
}

// TestConvergenceToBestLevel runs the decider against a synthetic environment
// in which level `best` yields a strictly higher application data rate and
// verifies the decider spends the large majority of windows there. This is
// the paper's headline behaviour (Figure 4).
func TestConvergenceToBestLevel(t *testing.T) {
	rates := []float64{80, 200, 140, 25} // level 1 is best (LIGHT on HIGH data)
	d := newTestDecider(t, Config{Levels: 4})
	atBest := 0
	lvl := 0
	rnd := rand.New(rand.NewSource(7))
	const windows = 600
	for i := 0; i < windows; i++ {
		rate := rates[lvl] * (1 + rnd.NormFloat64()*0.02)
		lvl = d.Observe(rate)
		if lvl == 1 {
			atBest++
		}
	}
	if frac := float64(atBest) / windows; frac < 0.80 {
		t.Fatalf("decider spent only %.0f%% of windows at the best level", frac*100)
	}
}

// TestProbingDecaysExponentially verifies that in a stable environment the
// number of probes in successive equal-length intervals decreases, the
// behaviour visible in Figure 4's compression-level timeline.
func TestProbingDecaysExponentially(t *testing.T) {
	rates := []float64{80, 200, 140, 25}
	d := newTestDecider(t, Config{Levels: 4})
	lvl := 0
	countSwitches := func(windows int) int {
		switches := 0
		prev := d.Level()
		for i := 0; i < windows; i++ {
			lvl = d.Observe(rates[lvl])
			if lvl != prev {
				switches++
			}
			prev = lvl
		}
		return switches
	}
	first := countSwitches(100)
	second := countSwitches(100)
	third := countSwitches(100)
	if !(first >= second && second >= third) {
		t.Fatalf("switch counts not decaying: %d, %d, %d", first, second, third)
	}
	if third > first && first > 0 {
		t.Fatalf("probing increased over time: %d -> %d", first, third)
	}
}

// TestImmediateReactionToDegradation: the paper claims the algorithm "can
// always react to degradations of the application data rate immediately
// (i.e. after t seconds)". Simulate a long stable phase (large backoff) and
// then a sharp drop; the level must change on the very next observation.
func TestImmediateReactionToDegradation(t *testing.T) {
	rates := []float64{80, 200, 140, 25}
	d := newTestDecider(t, Config{Levels: 4})
	lvl := 0
	for i := 0; i < 200; i++ {
		lvl = d.Observe(rates[lvl])
	}
	if lvl != 1 {
		t.Fatalf("setup: expected convergence to level 1, at %d", lvl)
	}
	before := d.Level()
	after := d.Observe(rates[lvl] * 0.2) // sharp degradation
	if after == before {
		t.Fatal("no immediate reaction to sharp degradation")
	}
}

// TestDisableBackoffProbesEveryStableWindow covers the A3 ablation knob.
func TestDisableBackoffProbesEveryStableWindow(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4, DisableBackoff: true})
	d.Observe(100)
	d.Observe(300) // improvement: would normally set bck[1]=1
	if d.Backoff(1) != 0 {
		t.Fatalf("backoff accumulated despite DisableBackoff: %d", d.Backoff(1))
	}
	lvlA := d.Observe(300) // stable: probe immediately
	lvlB := d.Observe(300) // stable: probe again immediately
	if lvlA == 1 && lvlB == 1 {
		t.Fatal("no probing with backoff disabled")
	}
}

// TestMaxBackoffExpCap covers the capped-backoff extension.
func TestMaxBackoffExpCap(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 2, MaxBackoffExp: 2})
	d.Observe(100)
	for i := 0; i < 10; i++ {
		d.Observe(100 * float64(i+2)) // continuous improvement
	}
	if d.Backoff(1) > 2 {
		t.Fatalf("backoff %d exceeds cap 2", d.Backoff(1))
	}
}

// TestPaperPathHasNoHooks: the two places a learned variant may differ from
// Algorithm 1 are unset on every way of constructing the paper's policy.
func TestPaperPathHasNoHooks(t *testing.T) {
	for name, d := range map[string]*AlgorithmOne{
		"NewDecider":        MustNewDecider(Config{Levels: 4}),
		"NewPolicy(algone)": MustNewPolicy(PolicyAlgorithmOne, Config{Levels: 4}).(*AlgorithmOne),
		"NewPolicy(\"\")":   MustNewPolicy("", Config{Levels: 4}).(*AlgorithmOne),
	} {
		if d.gate != nil || d.reward != nil {
			t.Errorf("%s: paper path has a hook set (gate %v, reward %v)", name, d.gate != nil, d.reward != nil)
		}
	}
}

// TestStatsCounters sanity-checks the diagnostic counters.
func TestStatsCounters(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4})
	d.Observe(100) // probe
	d.Observe(200) // reward
	d.Observe(50)  // revert
	if got, want := d.PolicyStats(), (PolicyStats{Probes: 1, Reverts: 1, Rewards: 1, Observed: 3}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestSnapshotAndString(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4})
	d.Observe(100e6)
	d.Observe(200e6)
	snap := d.Snapshot()
	if snap.CCL != d.Level() || snap.Observed != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Bck) != 4 || snap.Bck[1] != d.Backoff(1) {
		t.Fatalf("snapshot backoffs = %v", snap.Bck)
	}
	// Snapshot must be a copy, not an alias.
	snap.Bck[1] = 99
	if d.Backoff(1) == 99 {
		t.Fatal("snapshot aliases internal state")
	}
	s := d.String()
	for _, want := range []string{"ccl=", "bck=", "pdr=200.0MB/s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestQuickNoNaNPropagation: NaN and Inf inputs must not corrupt the state
// machine into an invalid level. (Rates come from measured byte counts so
// they are finite in practice, but the state machine must stay safe.)
func TestExtremeCdrValues(t *testing.T) {
	d := newTestDecider(t, Config{Levels: 4})
	inputs := []float64{1e308, 0, 1e-308, 5, 1e308, 3}
	for _, in := range inputs {
		lvl := d.Observe(in)
		if lvl < 0 || lvl > 3 {
			t.Fatalf("level %d out of range for input %v", lvl, in)
		}
	}
}

func BenchmarkObserve(b *testing.B) {
	d := MustNewDecider(Config{Levels: 4})
	rnd := rand.New(rand.NewSource(1))
	rates := make([]float64, 1024)
	for i := range rates {
		rates[i] = 100 * (1 + rnd.NormFloat64()*0.2)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Observe(rates[i%len(rates)])
	}
}
