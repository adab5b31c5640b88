package core

import "math"

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

// EWMAPredictive is the trend-predictive policy: Algorithm 1's skeleton (the
// embedded AlgorithmOne, unchanged) with the probe timer re-derived from the
// observed rate trend instead of a fixed exponential schedule. Two changes,
// both motivated by where the shape suite shows Algorithm 1 wasting probes:
//
//   - In steady state it backs off twice as fast (predRewardStep) until
//     the exponent reaches predFastExp, skipping the cheap early
//     probe-revert-reward cycles — the dominant source of wasted probes on
//     a converged stream. Above the threshold reinforcement slows to the
//     paper's +1 per cycle, so the probing horizon stays bounded and a
//     plateau whose share silently improves is still rediscovered. This is
//     the reward hook.
//   - A two-horizon EWMA pair watches the smoothed rate; when the fast
//     average diverges from the slow one beyond predShiftFrac of the
//     tolerance band, the current level's backoff is zeroed — before the
//     skeleton observes the window — so a probe fires on the next stable
//     window: probing proactively on the trend shift rather than waiting out
//     a backoff that was earned in a regime that no longer exists.
//
// The detector is edge-triggered (armed only after the trend returns inside
// the band) so a long ramp re-opens probing once, not every window. The
// policy is fully deterministic: no randomness at all.
type EWMAPredictive struct {
	AlgorithmOne

	fast, slow float64
	armed      bool
}

// NewEWMAPredictive creates a trend-predictive decider.
func NewEWMAPredictive(cfg Config) (*EWMAPredictive, error) {
	skeleton, err := NewDecider(Config{Levels: cfg.Levels, Alpha: cfg.Alpha})
	if err != nil {
		return nil, err
	}
	p := &EWMAPredictive{AlgorithmOne: *skeleton, armed: true}
	p.reward = p.rewardStep
	return p, nil
}

// Observe implements Decider: run the trend detector, then Algorithm 1.
func (p *EWMAPredictive) Observe(cdr float64) int {
	if !p.havePrev {
		p.fast = cdr
		p.slow = cdr
	}

	// Trend detector: proactively re-open probing when the smoothed rate
	// regime moves.
	p.fast += predFastGain * (cdr - p.fast)
	p.slow += predSlowGain * (cdr - p.slow)
	shifted := p.slow > 0 && math.Abs(p.fast-p.slow) > predShiftFrac*p.cfg.Alpha*p.slow
	if shifted {
		if p.armed {
			p.bck[p.ccl] = 0
			p.armed = false
		}
	} else {
		p.armed = true
	}

	return p.AlgorithmOne.Observe(cdr)
}

// rewardStep is the reward hook: double speed below the threshold, the
// paper's +1 above it.
func (p *EWMAPredictive) rewardStep(level int) {
	if p.bck[level] < predFastExp {
		p.bck[level] += predRewardStep
	} else {
		p.bck[level]++
	}
}

// Name implements Decider.
func (p *EWMAPredictive) Name() string { return PolicyEWMA }
