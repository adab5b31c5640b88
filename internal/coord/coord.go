// Package coord is the fleet-level compression coordinator: a host-scoped
// controller that owns a shared link-bandwidth budget and assigns
// compression levels across every registered stream, instead of letting N
// independent core.Deciders probe against each other on one contended NIC.
//
// The paper's decision model (internal/core) deliberately adapts from the
// observed application data rate alone, because inside a VM every
// OS-provided metric is suspect (Section II). That remains true per stream —
// but when many streams of the *same host* share one NIC, each solo decider
// misattributes its neighbours' probes as environment shifts and oscillates:
// a probe by stream A shifts the share of streams B..N, whose deciders see a
// "degradation", revert, shift the shares again, and the fleet flaps.
// Gridiron (PAPERS.md) models cloud workloads with explicit per-flow
// bandwidth requirements, and ADARES observes that adaptive controllers need
// shared context to stop flailing; coord is that shared context.
//
// The coordinator holds exactly one trustworthy host-local fact the solo
// decider cannot know: the link budget and how many siblings share it. From
// it, each stream's weighted-fair wire share is
//
//	share_i = Budget * weight_i / Σ weight_j
//
// and the level assigned to stream i maximizes the estimated goodput
//
//	E_i(l) = min(share_i / ratio_i(l), comp_i(l))
//
// where ratio_i(l) and comp_i(l) are per-stream estimates (fixed priors
// corrected by per-stream multiplicative drift learned from the stream's own
// observed window stats — again application-side observations only, never OS
// metrics). Two damping rules suppress level flapping:
//
//   - a candidate level must beat the current one's estimate by
//     ImprovementMargin, and
//   - it must stay the winner for HysteresisWindows consecutive windows, and
//     moves step one level at a time with a minimum dwell between steps.
//
// When a stream detaches, it falls back to its own solo Algorithm 1, which
// the coordinator keeps warm by feeding it every observed window rate while
// attached.
//
// Observability (internal/obs): coord.goodput.bytes, coord.level.flaps,
// coord.streams.active, plus coord.level.switches and coord.streams.total.
// See docs/coordination.md for the budget/fairness/hysteresis contract and
// the contention-regression suite that gates this package.
package coord

import (
	"fmt"
	"math"
	"sync"

	"adaptio/internal/core"
	"adaptio/internal/obs"
)

// The damping and estimation constants. They are not options: every claim
// the coordinator makes (the contention suite, the flaps and hetfleet
// scenarios) was measured at these values and no caller wants others.
const (
	// HysteresisWindows is how many consecutive windows a better target
	// level must persist before the stream moves one step toward it, and
	// also the minimum dwell (in windows) between two moves of one stream.
	HysteresisWindows = 3
	// ImprovementMargin is the fractional estimated-goodput advantage a
	// candidate level needs over the current one before it is considered
	// at all; differences inside the margin are treated as noise (the
	// coordinator's analogue of the solo decider's α band).
	ImprovementMargin = 0.10
	// FlapWindow: a level move that reverses the stream's previous move
	// direction within this many windows counts as a flap
	// (coord.level.flaps).
	FlapWindow = 8
	// driftGain is the EWMA gain of the per-stream prior corrections.
	driftGain = 0.4
)

// The priors of the four-level NO/LIGHT/MEDIUM/HEAVY ladder, from the
// Table II-calibrated reference profiles (internal/cloudsim, MODERATE
// corpus): ratioPrior[l] is the expected wire/app ratio at level l,
// compBytesPerSec[l] the expected single-stream compression throughput in
// application bytes/s. They only need to be order-of-magnitude right,
// because every stream corrects them multiplicatively from its own observed
// windows.
var (
	ratioPrior      = [...]float64{1, 0.45, 0.40, 0.33}
	compBytesPerSec = [...]float64{5000e6, 104e6, 71e6, 8.9e6}
)

// DefaultBudgetBytesPerSec is a 1 Gbit/s link's achievable application-layer
// throughput (the paper's evaluation NIC), the conventional budget when the
// operator does not specify one.
const DefaultBudgetBytesPerSec = 111e6

// Config parameterizes a Coordinator.
type Config struct {
	// BudgetBytesPerSec is the shared wire-byte budget of the link all
	// registered streams traverse (application-layer achievable bytes/s,
	// not raw line rate). Zero means DefaultBudgetBytesPerSec.
	BudgetBytesPerSec float64

	// Levels is the size of the streams' compression ladder, including
	// level 0 = no compression. It must be the four levels the priors
	// describe.
	Levels int

	// Alpha is forwarded to each stream's fallback Algorithm 1; zero means
	// the paper's default.
	Alpha float64

	// Obs, if non-nil, is the scope the coordinator registers its metrics
	// under (conventionally "coord"). Nil keeps the coordinator fully
	// functional with unregistered metrics.
	Obs *obs.Scope

	// CheatFreeze is the contention-suite's cheat sentinel knob (the
	// DisableRevert pattern of internal/experiments/shape_test.go applied
	// to fleet coordination): the coordinator never moves any stream off
	// its initial level, which trivially zeroes the flap metric while
	// giving up all adaptation. The contention-regression suite flips it
	// to prove its combined goodput+flap assertions cannot be gamed by a
	// policy that optimizes the flap metric alone. Never set in
	// production.
	CheatFreeze bool
}

func (c Config) withDefaults() (Config, error) {
	if c.Levels != len(ratioPrior) {
		return c, fmt.Errorf("coord: the priors cover a %d-level ladder, got Levels %d", len(ratioPrior), c.Levels)
	}
	if c.BudgetBytesPerSec < 0 {
		return c, fmt.Errorf("coord: negative budget %v", c.BudgetBytesPerSec)
	}
	if math.IsNaN(c.BudgetBytesPerSec) || math.IsInf(c.BudgetBytesPerSec, 1) {
		return c, fmt.Errorf("coord: non-finite budget %v", c.BudgetBytesPerSec)
	}
	if c.BudgetBytesPerSec == 0 {
		c.BudgetBytesPerSec = DefaultBudgetBytesPerSec
	}
	if c.Alpha < 0 {
		return c, fmt.Errorf("coord: negative alpha %v", c.Alpha)
	}
	if math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 1) {
		return c, fmt.Errorf("coord: non-finite alpha %v", c.Alpha)
	}
	return c, nil
}

// coordMetrics are the coordinator's obs instruments, resolved once.
type coordMetrics struct {
	goodputBytes  *obs.Counter
	flaps         *obs.Counter
	switches      *obs.Counter
	streamsActive *obs.Gauge
	streamsTotal  *obs.Counter
	streamsSolo   *obs.Counter // detach events: streams fallen back to solo
}

func newCoordMetrics(scope *obs.Scope) *coordMetrics {
	return &coordMetrics{
		goodputBytes:  scope.Counter("goodput.bytes"),
		flaps:         scope.Counter("level.flaps"),
		switches:      scope.Counter("level.switches"),
		streamsActive: scope.Gauge("streams.active"),
		streamsTotal:  scope.Counter("streams.total"),
		streamsSolo:   scope.Counter("streams.solo_fallbacks"),
	}
}

// Coordinator owns the link budget and the registered stream set. All
// methods are safe for concurrent use; per-window work is one short
// critical section per stream.
type Coordinator struct {
	cfg Config
	m   *coordMetrics

	mu         sync.Mutex
	streams    map[*Stream]struct{}
	sumWeights float64
}

// New creates a Coordinator for the given configuration.
func New(cfg Config) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		cfg:     cfg,
		m:       newCoordMetrics(cfg.Obs),
		streams: make(map[*Stream]struct{}),
	}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Coordinator {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// ActiveStreams returns the number of currently registered streams.
func (c *Coordinator) ActiveStreams() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.streams)
}

// Budget returns the configured link budget in bytes per second.
func (c *Coordinator) Budget() float64 { return c.cfg.BudgetBytesPerSec }

// StreamConfig describes one stream joining the coordinated fleet.
type StreamConfig struct {
	// Weight is the stream's share weight for weighted-fair budget
	// division (per-tenant priority). Zero, negative, NaN and +Inf mean 1.
	Weight float64
	// Tenant is a free-form owner label carried into diagnostics.
	Tenant string
}

// Register adds a stream to the fleet and returns its handle. The stream
// starts at level 0 (like a fresh solo decider) and is coordinated until
// Detach. Register on a nil Coordinator returns nil — callers that support
// running without a coordinator must branch, exactly as they would for a
// nil obs scope.
func (c *Coordinator) Register(sc StreamConfig) *Stream {
	if c == nil {
		return nil
	}
	w := sc.Weight
	if !(w > 0) || math.IsInf(w, 1) {
		w = 1
	}
	s := &Stream{
		coord:         c,
		weight:        w,
		tenant:        sc.Tenant,
		ratioDrift:    1,
		compDrift:     1,
		lastSwitchWin: -1,
		solo:          core.MustNewDecider(core.Config{Levels: c.cfg.Levels, Alpha: c.cfg.Alpha}),
	}
	c.mu.Lock()
	c.streams[s] = struct{}{}
	c.sumWeights += w
	c.mu.Unlock()
	c.m.streamsTotal.Inc()
	c.m.streamsActive.Add(1)
	return s
}

// detach removes s from the fleet; idempotence is handled by the caller
// (Stream.Detach).
func (c *Coordinator) detach(s *Stream) {
	c.mu.Lock()
	if _, ok := c.streams[s]; ok {
		delete(c.streams, s)
		c.sumWeights -= s.weight
		if c.sumWeights < 0 {
			c.sumWeights = 0
		}
	}
	c.mu.Unlock()
	c.m.streamsActive.Add(-1)
	c.m.streamsSolo.Inc()
}

// shareBytesPerSec returns the weighted-fair wire share of a stream with the
// given weight; callers hold c.mu.
func (c *Coordinator) shareLocked(weight float64) float64 {
	if c.sumWeights <= 0 {
		return c.cfg.BudgetBytesPerSec
	}
	return c.cfg.BudgetBytesPerSec * weight / c.sumWeights
}
