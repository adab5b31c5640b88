// Package core implements the paper's primary contribution: the rate-based
// decision model for adaptive online compression in virtualized environments
// (Algorithm 1, Section III-A of Hovestadt et al., IPDPS 2011).
//
// The model selects one of n ordered compression levels purely from the
// observed application data rate — the rate at which the application's bytes
// move through the compression module per t-second window — and deliberately
// ignores every OS-provided system metric (CPU utilization, link bandwidth),
// because Section II of the paper shows those metrics can be wrong by more
// than an order of magnitude inside virtual machines.
//
// The algorithm distinguishes three cases each window:
//
//  1. The rate is unchanged within a tolerance band α: after an
//     exponentially growing backoff expires, optimistically probe the
//     neighbouring level in the current probe direction.
//  2. The rate improved: reward the current level by incrementing its
//     backoff exponent, making future probes away from it exponentially
//     rarer.
//  3. The rate degraded: reset the current level's backoff and immediately
//     revert the previous change by moving one level against the probe
//     direction.
//
// The Decider is a pure state machine: it contains no clocks, no I/O and no
// goroutines, so the identical production code runs both under the real-time
// stream layer (internal/stream) and inside the discrete-event cloud
// simulator (internal/cloudsim) that regenerates the paper's evaluation.
package core

import (
	"fmt"
	"math"
)

// Default parameter values used throughout the paper's evaluation
// (Section IV-A: "During all the experiments t was set to 2 seconds and
// α to 0.2").
const (
	// DefaultAlpha is the relative tolerance band within which two
	// consecutive application data rates are considered equal.
	DefaultAlpha = 0.2
	// DefaultWindow is the reconsideration interval t in seconds.
	DefaultWindowSeconds = 2.0
)

// Config is the configuration every policy is constructed from: NewDecider's
// and, under its other name PolicyConfig, NewPolicy's. A policy ignores the
// fields that do not apply to it (the ablation flags are AlgorithmOne's
// alone; Seed matters only to a stochastic policy).
type Config struct {
	// Levels is the number of compression levels n (including level 0 =
	// no compression). Must be >= 1.
	Levels int

	// Alpha is the tolerance parameter α: cdr counts as "changed" only if
	// |cdr-pdr| > Alpha*pdr. Zero means DefaultAlpha. Negative, NaN and
	// +Inf are invalid.
	Alpha float64

	// Seed drives any stochastic component (the bandit's exploration).
	// Policies must be fully deterministic given (config, observations).
	Seed uint64

	// DisableBackoff turns the exponential backoff scheme off, so an
	// optimistic probe happens every window in which the rate is stable.
	// It exists for the ablation study (DESIGN.md A3); the paper's
	// algorithm always has backoff enabled.
	DisableBackoff bool

	// MaxBackoffExp caps the backoff exponent so that probing never stops
	// entirely. Zero means the paper's behaviour (uncapped). The paper
	// notes (Fig. 6 discussion) that large backoff values for level 0 can
	// delay the reaction to increased compressibility; capping is the
	// obvious extension and is exercised by the ablation benches.
	MaxBackoffExp int

	// DisableRevert turns off the revert-on-degradation rule (Algorithm 1
	// lines 19-27 keep resetting the backoff, but the level stays put).
	// This is an ablation knob only: the shape-fidelity test suite flips
	// it to prove that the paper's headline properties genuinely depend on
	// the revert rule, not on the simulator.
	DisableRevert bool
}

func (c Config) withDefaults() (Config, error) {
	if c.Levels < 1 {
		return c, fmt.Errorf("core: config needs at least 1 level, got %d", c.Levels)
	}
	if c.Alpha < 0 {
		return c, fmt.Errorf("core: negative alpha %v", c.Alpha)
	}
	if math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 1) {
		return c, fmt.Errorf("core: non-finite alpha %v", c.Alpha)
	}
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.MaxBackoffExp < 0 {
		return c, fmt.Errorf("core: negative backoff cap %d", c.MaxBackoffExp)
	}
	return c, nil
}

// AlgorithmOne is the paper-faithful decision model state machine and the
// default Decider policy. Its fields mirror the variables of Algorithm 1
// and Table I in the paper. An AlgorithmOne is not safe for concurrent use;
// the stream layer serializes access.
//
// It is the only implementation of the skeleton: the learned policies embed
// it and differ from the paper at exactly two places, the hooks gate and
// reward (docs/deciders.md, "One skeleton, two hooks"). Both hooks are nil on
// the paper path — NewDecider and NewPolicy("algone") never set them, and
// being unexported they cannot be set from outside the package — and the
// paper path's decision sequence is pinned byte for byte by the golden-trace
// test (testdata/algone_decisions.golden).
type AlgorithmOne struct {
	cfg Config

	ccl int     // current compression level, initially 0
	c   int     // calls since last level change
	inc bool    // true if the last change was an increase, initially true
	bck []int   // per-level backoff exponents, initially 0
	pdr float64 // previous window's application data rate

	havePrev bool // pdr is valid (false only before the first observation)

	// gate, when set, is asked on line 6 once the backoff has expired:
	// "take the probe the backoff just released?". A refusal holds the level
	// and leaves c running, so the question is asked again next window.
	gate func() bool
	// reward, when set, replaces line 17's increment of bck[level].
	reward func(level int)

	// Diagnostics, not part of the paper's algorithm.
	probes   int // optimistic switches taken
	reverts  int // degradation-triggered reverts
	rewards  int // backoff increments
	observed int // total observations
	wasted   int // probes undone by a revert on the very next window

	last Decision // outcome of the most recent Observe
}

// DecisionKind classifies what one Observe call did.
type DecisionKind int

const (
	// DecisionHold: the rate was stable and the backoff has not expired
	// (or a knob suppressed the move); the level stays.
	DecisionHold DecisionKind = iota
	// DecisionProbe: stable rate, backoff expired — optimistic probe to a
	// neighbouring level.
	DecisionProbe
	// DecisionReward: the rate improved; the current level's backoff
	// exponent was incremented.
	DecisionReward
	// DecisionRevert: the rate degraded; the previous change was reverted
	// and the level's backoff reset.
	DecisionRevert
)

// String returns the kind's event-log name.
func (k DecisionKind) String() string {
	switch k {
	case DecisionProbe:
		return "probe"
	case DecisionReward:
		return "reward"
	case DecisionRevert:
		return "revert"
	default:
		return "hold"
	}
}

// Decision records the outcome of one Observe call for observability: the
// stream layer's decision event log (internal/obs) is fed from it, giving
// probe/revert/backoff transitions external visibility without touching
// the algorithm itself.
type Decision struct {
	// Kind is what happened.
	Kind DecisionKind
	// From and To are the levels before and after the call (equal unless
	// the level changed).
	From, To int
	// Rate and PrevRate are cdr and pdr as the algorithm compared them.
	Rate, PrevRate float64
	// Backoff is the backoff exponent of the From level after the call —
	// reset to 0 by a revert, incremented by a reward.
	Backoff int
}

// LastDecision returns what the most recent Observe call did. Before the
// first Observe it is the zero Decision.
func (d *AlgorithmOne) LastDecision() Decision { return d.last }

// NewDecider creates the paper-faithful AlgorithmOne policy for the given
// configuration, ablation knobs included; NewPolicy constructs any policy by
// registry name.
func NewDecider(cfg Config) (*AlgorithmOne, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &AlgorithmOne{
		cfg: cfg,
		inc: true, // Table I: inc is initially TRUE
		bck: make([]int, cfg.Levels),
	}, nil
}

// MustNewDecider is NewDecider for known-good configurations.
func MustNewDecider(cfg Config) *AlgorithmOne {
	d, err := NewDecider(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Decider.
func (d *AlgorithmOne) Name() string { return PolicyAlgorithmOne }

// PolicyStats implements Decider.
func (d *AlgorithmOne) PolicyStats() PolicyStats {
	return PolicyStats{
		Probes:       d.probes,
		Reverts:      d.reverts,
		Rewards:      d.rewards,
		Observed:     d.observed,
		WastedProbes: d.wasted,
	}
}

// Level returns the currently selected compression level ccl.
func (d *AlgorithmOne) Level() int { return d.ccl }

// Backoff returns the current backoff exponent of the given level.
func (d *AlgorithmOne) Backoff(level int) int { return d.bck[level] }

// Snapshot is a point-in-time view of the decision model's state, exposed
// for logging and debugging. The field names follow Table I of the paper.
type Snapshot struct {
	CCL      int     // current compression level
	C        int     // calls since the last level change
	Inc      bool    // last change was an increase
	Bck      []int   // per-level backoff exponents
	PDR      float64 // previous window's application data rate
	Observed int     // total observations so far
}

// Snapshot returns a copy of the current state.
func (d *AlgorithmOne) Snapshot() Snapshot {
	return Snapshot{
		CCL:      d.ccl,
		C:        d.c,
		Inc:      d.inc,
		Bck:      append([]int(nil), d.bck...),
		PDR:      d.pdr,
		Observed: d.observed,
	}
}

// String renders the state compactly, e.g. for OnWindow logging:
// "ccl=1 c=3 inc=true bck=[0 2 0 0] pdr=87.3MB/s".
func (d *AlgorithmOne) String() string {
	return fmt.Sprintf("ccl=%d c=%d inc=%v bck=%v pdr=%.1fMB/s",
		d.ccl, d.c, d.inc, d.bck, d.pdr/1e6)
}

// Observe feeds one window's application data rate (application bytes per
// second, measured before compression) into the decision model and returns
// the compression level to use for the next window.
//
// This is Algorithm 1 plus the surrounding bookkeeping the paper describes
// in prose: pdr is primed with cdr on the first call ("On the first call of
// the decision algorithm, pdr is set to cdr", Table I), inc is updated
// outside the displayed algorithm from the relation between ccl and the
// returned ncl ("Note that inc is usually updated outside of the displayed
// algorithm"), and the result is clamped to the valid level range with the
// probe direction flipping at the edges so that probing continues at the
// ladder's ends.
func (d *AlgorithmOne) Observe(cdr float64) int {
	d.observed++
	if !d.havePrev {
		d.pdr = cdr
		d.havePrev = true
	}
	prev := d.pdr
	from := d.ccl
	ncl, move, kind := d.next(cdr, d.pdr, d.ccl)
	d.pdr = cdr

	// Clamp to the ladder. The paper leaves edge handling implicit; we
	// resolve it as follows. An optimistic *probe* that would leave the
	// ladder flips direction instead (otherwise the algorithm would
	// repeatedly try to leave the ladder in a direction that does not
	// exist and never probe the other one). A degradation *revert* that
	// would leave the ladder simply stays put: a revert is a retreat to
	// known-good ground, not an invitation to explore.
	if ncl < 0 || ncl > d.cfg.Levels-1 {
		switch move {
		case moveProbe:
			if ncl < 0 {
				ncl = min(1, d.cfg.Levels-1)
			} else {
				ncl = max(d.cfg.Levels-2, 0)
			}
		default:
			if ncl < 0 {
				ncl = 0
			} else {
				ncl = d.cfg.Levels - 1
			}
		}
	}

	if ncl != d.ccl {
		d.inc = ncl > d.ccl // inc updated from ccl and the returned ncl
		d.ccl = ncl
	}
	// A revert on the window immediately after a probe means the probe
	// moved to a worse level and the rate collapse sent us back: the
	// canonical wasted probe. Pure diagnostics — decisions are untouched
	// (the golden trace pins that).
	if kind == DecisionRevert && d.last.Kind == DecisionProbe {
		d.wasted++
	}
	d.last = Decision{
		Kind:     kind,
		From:     from,
		To:       d.ccl,
		Rate:     cdr,
		PrevRate: prev,
		Backoff:  d.bck[from],
	}
	return d.ccl
}

type moveKind int

const (
	moveNone moveKind = iota
	moveProbe
	moveRevert
)

// next is a literal transcription of Algorithm 1,
// GetNextCompressionLevel(cdr, pdr, ccl), additionally reporting whether the
// proposed change is an optimistic probe or a degradation revert so that
// Observe can resolve ladder-edge clamping correctly, plus the DecisionKind
// for the observability event log.
func (d *AlgorithmOne) next(cdr, pdr float64, ccl int) (int, moveKind, DecisionKind) {
	diff := cdr - pdr // line 1: d ← (cdr − pdr)
	d.c++             // line 2
	ncl := ccl        // line 3
	move := moveNone
	kind := DecisionHold

	abs := diff
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs <= d.cfg.Alpha*pdr: // line 4: no change in application data rate
		if d.backoffExpired() && (d.gate == nil || d.gate()) { // line 6: c >= 2^bck[ccl]
			// Backoff over, try another compression level.
			if d.inc { // lines 8-12
				ncl++
			} else {
				ncl--
			}
			d.c = 0 // line 13
			d.probes++
			move = moveProbe
			kind = DecisionProbe
		}
	case diff > 0: // line 15: application data rate has improved
		d.rewardLevel(ccl) // line 17: bck[ccl] ← bck[ccl] + 1
		d.c = 0            // line 18
		d.rewards++
		kind = DecisionReward
	default: // line 19: application data rate has decreased
		d.bck[ccl] = 0 // line 21
		if !d.cfg.DisableRevert {
			if d.inc { // lines 22-26: revert the last change
				ncl--
			} else {
				ncl++
			}
			d.reverts++
			move = moveRevert
			kind = DecisionRevert
		}
		d.c = 0 // line 27
	}
	return ncl, move, kind // line 29
}

func (d *AlgorithmOne) backoffExpired() bool {
	if d.cfg.DisableBackoff {
		return true
	}
	exp := d.bck[d.ccl]
	// 2^exp without overflow: beyond 62 the threshold exceeds any
	// realistic call count anyway.
	if exp > 62 {
		return false
	}
	return d.c >= 1<<uint(exp)
}

func (d *AlgorithmOne) rewardLevel(level int) {
	if d.cfg.DisableBackoff {
		return
	}
	if d.cfg.MaxBackoffExp > 0 && d.bck[level] >= d.cfg.MaxBackoffExp {
		return
	}
	if d.reward != nil {
		d.reward(level)
		return
	}
	d.bck[level]++ // uncapped, as in the paper; backoffExpired treats > 62 as "never"
}
