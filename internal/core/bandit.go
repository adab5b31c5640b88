package core

import "adaptio/internal/xrand"

// Bandit tuning constants. Calibrated against the policy-matrix suite
// (internal/experiments/decider_matrix_test.go): loose enough that the
// bandit keeps tracking regime shifts, tight enough that it stops paying
// for probes Algorithm 1 keeps wasting.
const (
	// banditQInit is the optimistic initial action value of every
	// context: unvisited contexts probe exactly like Algorithm 1 until
	// evidence arrives.
	banditQInit = 0.10
	// banditGain is the EWMA gain of the per-context action-value
	// updates — one decisively failed probe closes its context's gate.
	banditGain = 0.30
	// banditEpsilon is the exploration probability: a closed gate is
	// still probed this often, so a context whose economics improved is
	// rediscovered instead of starved.
	banditEpsilon = 0.10
	// banditTrendGain smooths the relative rate change into the trend
	// context dimension.
	banditTrendGain = 0.30
	// banditRatioGain smooths the achieved compression ratio of the
	// observed windows into the ratio context dimension.
	banditRatioGain = 0.20
	// banditRevertMemory is how many windows a revert stays in the
	// context vector ("recently burned").
	banditRevertMemory = 8
	// banditMaxVetoes bounds how many consecutive windows a closed gate
	// may delay a released probe before it is forced through. The veto is
	// a delay, not a cancellation: without the bound, a context whose
	// economics silently improved (a share step at a compressor-bound
	// plateau is invisible in the rate signal) could starve probing
	// forever, and the policy would never re-converge.
	banditMaxVetoes = 8
)

// BanditDecider is a contextual bandit over Algorithm 1's probe decision:
// it runs the paper's skeleton unchanged — the embedded AlgorithmOne owns the
// tolerance band, exponential backoff pacing, immediate revert on
// degradation — and treats "take the optimistic probe the backoff just
// released" (the gate hook) as a bandit arm whose value is learned per
// context (epsilon-greedy with optimistic initialization). Where Algorithm 1
// probes unconditionally whenever the backoff expires, the bandit consults
// the learned value of probing in the current context and holds when probing
// there has historically degraded the rate, paying only an epsilon
// exploration tax. ADARES (PAPERS.md) motivates the approach: static probe
// rules flail exactly where context is informative.
//
// The context vector is built from the obs-layer signals the stream layer
// already exports (docs/observability.md): the current level, the probe
// direction, a smoothed window-rate trend bucket, a recent-revert bit
// (revert/backoff history) and a smoothed compression-ratio bucket (from
// the window's byte totals where the driver knows them; a neutral bucket
// otherwise). All randomness comes from the seeded RNG in the
// config, so a trace is exactly reproducible.
type BanditDecider struct {
	AlgorithmOne
	rng *xrand.RNG

	trend      float64 // EWMA of relative rate change
	ratio      float64 // EWMA of observed wire/app ratio; <0 = never fed
	lastRevert int     // observation index of the latest revert

	// q is the per-context action value of the probe arm.
	q []float64
	// pendingCtx is the context of a probe whose outcome the next
	// observation settles; -1 when no probe is in flight.
	pendingCtx int
	// vetoes counts consecutive gate-held windows since the last probe.
	vetoes int
}

// NewBandit creates a contextual-bandit decider.
func NewBandit(cfg Config) (*BanditDecider, error) {
	skeleton, err := NewDecider(Config{Levels: cfg.Levels, Alpha: cfg.Alpha})
	if err != nil {
		return nil, err
	}
	b := &BanditDecider{
		AlgorithmOne: *skeleton,
		rng:          xrand.New(cfg.Seed ^ 0xBA4D17),
		ratio:        -1,
		lastRevert:   -1 << 20,
		q:            make([]float64, cfg.Levels*2*3*2*3), // level x dir x trend x revert x ratio
		pendingCtx:   -1,
	}
	for i := range b.q {
		b.q[i] = banditQInit
	}
	b.gate = b.takeProbe
	return b, nil
}

// ObserveWindow implements WindowPolicy: the window's achieved wire/app
// ratio (1.0 = incompressible, smaller = better compression) joins the
// context vector before the rate is observed. Windows without usable byte
// totals leave the ratio estimate where it was.
func (b *BanditDecider) ObserveWindow(w Window) int {
	if w.AppBytes > 0 && w.WireBytes > 0 {
		ratio := float64(w.WireBytes) / float64(w.AppBytes)
		if b.ratio < 0 {
			b.ratio = ratio
		} else {
			b.ratio += banditRatioGain * (ratio - b.ratio)
		}
	}
	return b.Observe(w.Rate)
}

// Observe implements Decider: settle the probe in flight, run Algorithm 1
// (which asks takeProbe when its backoff expires), then update the context.
func (b *BanditDecider) Observe(cdr float64) int {
	prev := cdr // the skeleton primes pdr with cdr on the first call
	if b.havePrev {
		prev = b.pdr
	}
	rel := 0.0
	if prev > 0 {
		rel = (cdr - prev) / prev
	}

	// Settle the in-flight probe: this window's relative rate change is
	// what the probe bought. Rewards are normalized by the tolerance
	// band and clipped, so an out-of-band collapse counts as -1.
	if b.pendingCtx >= 0 {
		r := rel / b.cfg.Alpha
		if r > 1 {
			r = 1
		} else if r < -1 {
			r = -1
		}
		b.q[b.pendingCtx] += banditGain * (r - b.q[b.pendingCtx])
		b.pendingCtx = -1
	}

	b.AlgorithmOne.Observe(cdr)

	if b.last.Kind == DecisionRevert {
		b.lastRevert = b.observed
	}
	b.trend += banditTrendGain * (rel - b.trend)
	return b.ccl
}

// takeProbe is the gate hook: the learned value of probing in the current
// context, else epsilon exploration (drawn only when the learned gate holds —
// the draw order is the seed contract), else the veto budget running out. A
// veto delays the released probe; the skeleton's c keeps running, so the
// gate is re-rolled every window (epsilon gets a fresh chance) until the
// veto budget runs out.
func (b *BanditDecider) takeProbe() bool {
	ctx := b.context()
	if b.q[ctx] > 0 || b.rng.Float64() < banditEpsilon || b.vetoes >= banditMaxVetoes {
		b.vetoes = 0
		b.pendingCtx = ctx
		return true
	}
	b.vetoes++
	return false
}

// context discretizes the signal vector into a cell index.
func (b *BanditDecider) context() int {
	dir := 0
	if b.inc {
		dir = 1
	}
	tb := 1 // flat
	if b.trend < -b.cfg.Alpha/2 {
		tb = 0
	} else if b.trend > b.cfg.Alpha/2 {
		tb = 2
	}
	rr := 0
	if b.observed-b.lastRevert <= banditRevertMemory {
		rr = 1
	}
	rb := 1 // unknown or mid compressibility
	if b.ratio >= 0 {
		if b.ratio < 0.5 {
			rb = 0
		} else if b.ratio > 0.9 {
			rb = 2
		}
	}
	return (((b.ccl*2+dir)*3+tb)*2+rr)*3 + rb
}

// Name implements Decider.
func (b *BanditDecider) Name() string { return PolicyBandit }
