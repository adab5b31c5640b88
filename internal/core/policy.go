package core

import (
	"flag"
	"fmt"
	"sync/atomic"
)

// Policy is the level-selection seam: the one contract the stream writer
// (internal/stream), the simulators (internal/cloudsim) and the fleet
// coordinator (internal/coord) drive, and that the paper's Algorithm 1, the
// learned variants, static levels, coordinated streams and the related-work
// baselines all satisfy. A Policy is a pure state machine — no clocks, no
// I/O, no goroutines, no global randomness — so the identical policy code
// runs under the real-time writer and inside the simulator.
//
// Implementations are not safe for concurrent use; callers serialize.
type Policy interface {
	// Observe consumes one completed decision window's application data
	// rate (bytes/second, pre-compression — the cdr of Algorithm 1) and
	// returns the level for the next window, within [0, levels).
	Observe(rate float64) int
	// Level returns the currently selected level without observing; a
	// driver starts at it.
	Level() int
}

// Window is one completed decision window as its driver saw it. Every driver
// fills in everything it knows; a zero byte count or a nil Guest means
// "unknown", and a policy ignores the fields it does not use.
type Window struct {
	// Rate is the application data rate in bytes/second.
	Rate float64
	// AppBytes and WireBytes are the window's byte totals before and after
	// compression; WireBytes/AppBytes is the achieved ratio.
	AppBytes, WireBytes int64
	// Guest reads the OS-displayed metrics inside the sending VM. Only the
	// simulator's network transfer supplies it. It is a function because a
	// reading is a noisy sample: the simulator draws it from its seeded
	// generator when a policy asks, so policies that never look leave the
	// run's random sequence untouched.
	Guest func() GuestMetrics
}

// GuestMetrics is the set of OS-displayed system metrics a metric-driven
// compression scheme (Section V's related work) can query inside the guest.
// Crucially these carry the virtualization distortions of Section II: the
// displayed idle percentage reflects the guest's skewed accounting, not the
// host's true cost.
type GuestMetrics struct {
	// DisplayedIdlePct is the idle CPU percentage shown by the guest's
	// /proc/stat. Under paravirtualized I/O it stays high even when the
	// host burns a full core on the VM's traffic.
	DisplayedIdlePct float64
	// DisplayedBandwidthMBps is what a guest-side bandwidth probe (an
	// NWS-style sensor) reports for the network path, wire bytes per
	// second, including contention fluctuation.
	DisplayedBandwidthMBps float64
	// CompressorMBps is the rate (application MB/s) at which a dedicated
	// compression thread could produce output at the current level.
	CompressorMBps float64
	// NetDrainMBps is the wire-layer rate the network actually drains.
	NetDrainMBps float64
	// WindowSeconds is the length of the elapsed window.
	WindowSeconds float64
}

// WindowPolicy is a Policy that uses more of the window than its rate: the
// achieved ratio (BanditDecider, coord.Stream) or the guest's displayed
// metrics (internal/baseline). Drivers call ObserveWindow instead of Observe
// on a policy that has it — through the package function ObserveWindow,
// never directly.
type WindowPolicy interface {
	Policy
	ObserveWindow(w Window) int
}

// ObserveWindow feeds one completed window to p and returns the level for
// the next window. It is the single dispatch every driver calls: a
// WindowPolicy receives the whole window, any other policy exactly one
// Observe(w.Rate). The returned level is always within [0, levels); if the
// policy's own answer was not, it comes back clamped together with an error,
// which a simulator reports and the stream writer — which must keep the
// stream alive under a misbehaving policy — drops.
func ObserveWindow(p Policy, levels int, w Window) (int, error) {
	var next int
	if wp, ok := p.(WindowPolicy); ok {
		next = wp.ObserveWindow(w)
	} else {
		next = p.Observe(w.Rate)
	}
	if next >= 0 && next < levels {
		return next, nil
	}
	return min(max(next, 0), levels-1), fmt.Errorf("core: policy chose level %d outside [0, %d)", next, levels)
}

// Static pins one compression level forever (the paper's NO / LIGHT /
// MEDIUM / HEAVY rows in Table II).
type Static int

// Observe implements Policy.
func (s Static) Observe(float64) int { return int(s) }

// Level implements Policy.
func (s Static) Level() int { return int(s) }

// Decider is a Policy that also explains itself: the contract the registry
// policies (NewPolicy) — the paper's Algorithm 1 and the learned variants —
// satisfy. Two Deciders constructed with the same configuration and fed the
// same observations produce the same decision trace — the determinism the
// policy-matrix CI gate replays (see docs/deciders.md).
type Decider interface {
	Policy
	// LastDecision classifies what the most recent observation did,
	// feeding the obs-layer decision event log.
	LastDecision() Decision
	// PolicyStats reports the cumulative probe/revert economics the
	// two-axis acceptance bound gates on (see PolicyStats.WastedProbes).
	PolicyStats() PolicyStats
}

// PolicyStats is the cumulative decision economics of a policy: what the
// two-axis acceptance bound (docs/deciders.md) gates on. All counters are
// monotone.
type PolicyStats struct {
	// Probes counts exploratory level moves (DecisionProbe).
	Probes int
	// Reverts counts degradation-triggered take-backs (DecisionRevert).
	Reverts int
	// Rewards counts stable-improvement reinforcements (DecisionReward).
	Rewards int
	// Observed counts Observe calls.
	Observed int
	// WastedProbes counts probes that were undone by a revert on the
	// immediately following window: the probe moved the stream to a
	// worse level, the rate collapsed, and the policy retreated. This is
	// the probe-economy axis of the acceptance bound — a learned policy
	// must waste strictly fewer probes than AlgorithmOne while staying
	// within-or-better on converged throughput; bounding either axis
	// alone is gameable: Static(0), which never probes, wastes nothing.
	WastedProbes int
}

// Registry names of the built-in policies.
const (
	// PolicyAlgorithmOne is the paper-faithful default (Algorithm 1).
	PolicyAlgorithmOne = "algone"
	// PolicyBandit is the contextual-bandit probe-gating policy.
	PolicyBandit = "bandit"
	// PolicyEWMA is the EWMA trend-predictive policy.
	PolicyEWMA = "ewma"
)

// PolicyNames lists the registry policies in catalog order.
func PolicyNames() []string {
	return []string{PolicyAlgorithmOne, PolicyBandit, PolicyEWMA}
}

// PolicyConfig is Config, under the name bench/ and the adaptio facade
// construct policies with.
type PolicyConfig = Config

// NewPolicy constructs a policy by registry name.
func NewPolicy(name string, cfg Config) (Decider, error) {
	switch name {
	case PolicyAlgorithmOne, "": // empty selects the paper default
		return NewDecider(cfg)
	case PolicyBandit:
		return NewBandit(cfg)
	case PolicyEWMA:
		return NewEWMAPredictive(cfg)
	default:
		return nil, fmt.Errorf("core: unknown decider policy %q (want one of %v)", name, PolicyNames())
	}
}

// PolicyFactory returns a constructor of fresh policies of one registry
// name: what a CLI hands to a substrate that runs one policy per stream
// (tunnel.Config.Policy). It accepts what NewPolicy does — PolicyNames and
// the empty name for Algorithm 1 — and validates cfg here, once. The
// constructor is safe for concurrent calls; its n-th call (counting from 1)
// seeds the policy cfg.Seed ^ n<<20. The promise is per factory, in call
// order: the i-th policies of two factories with the same configuration
// decide identically on identical observations, whatever else the process
// runs.
func PolicyFactory(name string, cfg Config) (func() Policy, error) {
	if _, err := NewPolicy(name, cfg); err != nil {
		return nil, err
	}
	var calls atomic.Uint64
	return func() Policy {
		c := cfg
		c.Seed ^= calls.Add(1) << 20
		return MustNewPolicy(name, c)
	}, nil
}

// Adaptive is the CLIs' -static value for "decided at runtime" (the paper's
// DYNAMIC scheme). It is not a level: Static(Adaptive) is out of range.
const Adaptive = -1

// PolicyFromFlags is how a CLI chooses its policy constructor from its parsed
// flag set fs, -static and -decider: after RefusePinnedFlags, Static(static)
// for a level of cfg's ladder and PolicyFactory(name, cfg) for Adaptive.
func PolicyFromFlags(fs *flag.FlagSet, static int, name string, cfg Config) (func() Policy, error) {
	if err := RefusePinnedFlags(fs, static, name); err != nil {
		return nil, err
	}
	if static == Adaptive {
		return PolicyFactory(name, cfg)
	}
	if static < 0 || static >= cfg.Levels {
		return nil, fmt.Errorf("-static %d is not a level: want %d (adaptive) or 0..%d", static, Adaptive, cfg.Levels-1)
	}
	return func() Policy { return Static(static) }, nil
}

// RefusePinnedFlags refuses, beside -static N, a non-empty -decider and an
// -alpha or -decider-seed set in fs.
func RefusePinnedFlags(fs *flag.FlagSet, static int, name string) (err error) {
	const why = "is incompatible with -static N (a pinned level takes no policy settings)"
	if static != Adaptive && name != "" {
		return fmt.Errorf("-decider %s", why)
	}
	fs.Visit(func(f *flag.Flag) {
		if err == nil && static != Adaptive && (f.Name == "alpha" || f.Name == "decider-seed") {
			err = fmt.Errorf("-%s %s", f.Name, why)
		}
	})
	return err
}

// MustNewPolicy is NewPolicy for known-good configurations.
func MustNewPolicy(name string, cfg Config) Decider {
	d, err := NewPolicy(name, cfg)
	if err != nil {
		panic(err)
	}
	return d
}
