package core

import (
	"fmt"
	"math"
)

// Predictive tuning constants (see docs/deciders.md for the calibration
// discussion).
const (
	// predFastGain / predSlowGain are the two EWMA horizons whose
	// divergence is the trend-shift detector: the fast average follows
	// the last few windows, the slow one the last few tens.
	predFastGain = 0.5
	predSlowGain = 0.15
	// predShiftFrac is the divergence (as a fraction of the slow
	// average, relative to the tolerance band) that counts as a regime
	// shift: half the alpha band, so the detector fires before the raw
	// per-window comparison would.
	predShiftFrac = 0.5
	// predRewardStep is how fast backoff grows per reinforcement below
	// predFastExp: twice Algorithm 1's, so a settling stream skips the
	// cheap-but-wasteful early probe cycles (bck 1 and 3).
	predRewardStep = 2
	// predFastExp is where double-speed backoff growth stops; above it
	// reinforcement grows the exponent by 1 per cycle, exactly like
	// Algorithm 1. Without the threshold the exponent compounds past any
	// useful probing horizon (each failed cycle ends in a reward, so a
	// plateau whose share silently improved — invisible to both the rate
	// signal and the trend detector — would never be re-probed).
	predFastExp = 4
)

// EWMAPredictive is the trend-predictive policy: Algorithm 1's skeleton
// with the probe timer re-derived from the observed rate trend instead of a
// fixed exponential schedule. Two changes, both motivated by where the
// shape suite shows Algorithm 1 wasting probes:
//
//   - In steady state it backs off twice as fast (predRewardStep) until
//     the exponent reaches predFastExp, skipping the cheap early
//     probe-revert-reward cycles — the dominant source of wasted probes on
//     a converged stream. Above the threshold reinforcement slows to the
//     paper's +1 per cycle, so the probing horizon stays bounded and a
//     plateau whose share silently improves is still rediscovered.
//   - A two-horizon EWMA pair watches the smoothed rate; when the fast
//     average diverges from the slow one beyond predShiftFrac of the
//     tolerance band, the current level's backoff is zeroed so a probe
//     fires on the next stable window — probing proactively on the trend
//     shift rather than waiting out a backoff that was earned in a regime
//     that no longer exists.
//
// The detector is edge-triggered (armed only after the trend returns inside
// the band) so a long ramp re-opens probing once, not every window. The
// policy is fully deterministic: no randomness at all.
type EWMAPredictive struct {
	levels int
	alpha  float64

	ccl int
	c   int
	inc bool
	bck []int

	pdr      float64
	havePrev bool

	fast, slow float64
	armed      bool

	probes, reverts, rewards, wasted int
	observed                         int
	last                             Decision
}

// NewEWMAPredictive creates a trend-predictive decider.
func NewEWMAPredictive(cfg PolicyConfig) (*EWMAPredictive, error) {
	if cfg.Levels < 1 {
		return nil, fmt.Errorf("core: config needs at least 1 level, got %d", cfg.Levels)
	}
	if cfg.Alpha < 0 {
		return nil, fmt.Errorf("core: negative alpha %v", cfg.Alpha)
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	return &EWMAPredictive{
		levels: cfg.Levels,
		alpha:  alpha,
		inc:    true,
		bck:    make([]int, cfg.Levels),
		armed:  true,
	}, nil
}

// Observe implements Decider.
func (p *EWMAPredictive) Observe(cdr float64) int {
	p.observed++
	if !p.havePrev {
		p.pdr = cdr
		p.fast = cdr
		p.slow = cdr
		p.havePrev = true
	}
	prev := p.pdr

	// Trend detector: proactively re-open probing when the smoothed rate
	// regime moves.
	p.fast += predFastGain * (cdr - p.fast)
	p.slow += predSlowGain * (cdr - p.slow)
	shifted := p.slow > 0 && math.Abs(p.fast-p.slow) > predShiftFrac*p.alpha*p.slow
	if shifted {
		if p.armed {
			p.bck[p.ccl] = 0
			p.armed = false
		}
	} else {
		p.armed = true
	}

	diff := cdr - prev
	abs := math.Abs(diff)
	from := p.ccl
	ncl := p.ccl
	kind := DecisionHold
	probeMove := false
	p.c++
	switch {
	case abs <= p.alpha*prev: // stable: probe when the slow timer expires
		if p.backoffExpired() {
			if p.inc {
				ncl++
			} else {
				ncl--
			}
			p.c = 0
			p.probes++
			kind = DecisionProbe
			probeMove = true
		}
	case diff > 0: // improved: reinforce, double speed below the threshold
		if p.bck[p.ccl] < predFastExp {
			p.bck[p.ccl] += predRewardStep
		} else if p.bck[p.ccl] < 62 {
			p.bck[p.ccl]++
		}
		p.c = 0
		p.rewards++
		kind = DecisionReward
	default: // degraded: reset and retreat, exactly as Algorithm 1
		p.bck[p.ccl] = 0
		if p.inc {
			ncl--
		} else {
			ncl++
		}
		kind = DecisionRevert
		p.reverts++
		if p.last.Kind == DecisionProbe {
			p.wasted++
		}
		p.c = 0
	}

	if ncl < 0 || ncl > p.levels-1 {
		if probeMove {
			if ncl < 0 {
				ncl = min(1, p.levels-1)
			} else {
				ncl = max(p.levels-2, 0)
			}
		} else {
			if ncl < 0 {
				ncl = 0
			} else {
				ncl = p.levels - 1
			}
		}
	}
	if ncl != p.ccl {
		p.inc = ncl > p.ccl
		p.ccl = ncl
	}
	p.pdr = cdr
	p.last = Decision{Kind: kind, From: from, To: p.ccl, Rate: cdr, PrevRate: prev, Backoff: p.bck[from]}
	return p.ccl
}

func (p *EWMAPredictive) backoffExpired() bool {
	exp := p.bck[p.ccl]
	if exp > 62 {
		return false
	}
	return p.c >= 1<<uint(exp)
}

// Level implements Decider.
func (p *EWMAPredictive) Level() int { return p.ccl }

// LastDecision implements Decider.
func (p *EWMAPredictive) LastDecision() Decision { return p.last }

// PolicyStats implements Decider.
func (p *EWMAPredictive) PolicyStats() PolicyStats {
	return PolicyStats{
		Probes:       p.probes,
		Reverts:      p.reverts,
		Rewards:      p.rewards,
		Observed:     p.observed,
		WastedProbes: p.wasted,
	}
}

// Name implements Decider.
func (p *EWMAPredictive) Name() string { return PolicyEWMA }
