// Package scenario is the declarative workload-scenario DSL and its
// faster-than-real-time execution engine: the layer that turns the paper's
// fixed 2011 evaluation grid (0–3 background connections × 3
// compressibilities) into an open-ended, regression-testable scenario
// surface.
//
// A Scenario composes, from plain Go structs or a JSON file:
//
//   - time-varying load curves (diurnal sinusoid, step, ramp, square wave,
//     heavy-tailed bursts, products of curves) driving per-stream offered
//     demand and NIC capacity;
//   - link perturbations: packet loss with an RTT-dependent Mathis cap and
//     latency ramps (bandwidth flaps are capacity curves);
//   - heterogeneous fleets: tenant groups with per-group weights, CPU-skew
//     spans and weighted corpus-kind mixes;
//   - replayable traces recorded from cmd/acload runs (internal/trace).
//
// The engine (Run) executes a scenario entirely on the discrete window
// clock of internal/cloudsim's shared-NIC fleet model, so a 1000-VM,
// multi-hour scenario finishes in CI seconds, and emits a byte-deterministic
// JSON artifact: same scenario + same seed = identical bytes, however the
// variants are scheduled. Built-in scenarios (Builtins) additionally carry
// claims — deterministic shape assertions evaluated on every run — which is
// what keeps the scenario matrix a regression surface instead of a demo.
// See docs/scenarios.md for the DSL reference and the claim catalog.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"time"

	"adaptio/internal/core"
	"adaptio/internal/corpus"
)

// ErrInvalid is the sentinel all scenario validation errors wrap; a decoder
// front end can distinguish "malformed scenario" (errors.Is(err, ErrInvalid)
// or a JSON decoding error) from environmental failures (I/O).
var ErrInvalid = errors.New("scenario: invalid")

// FieldError is a typed validation error naming the offending DSL field.
type FieldError struct {
	Field  string // dotted path, e.g. "fleet[2].cpu.max"
	Reason string
}

// Error implements error.
func (e *FieldError) Error() string {
	return fmt.Sprintf("scenario: invalid field %s: %s", e.Field, e.Reason)
}

// Unwrap makes errors.Is(err, ErrInvalid) true for every FieldError.
func (e *FieldError) Unwrap() error { return ErrInvalid }

func fieldErrf(field, format string, args ...any) error {
	return &FieldError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Limits that keep hostile or fat-fingered scenario files from turning into
// memory or CPU bombs: the parser is fuzzed, so every size knob is bounded.
const (
	MaxWindows      = 200_000
	MaxStreams      = 20_000
	MaxGroups       = 64
	MaxCurveFactors = 8
	MaxCurveDepth   = 4
	maxDuration     = 1000 * time.Hour
)

// DefaultSeed seeds scenarios that do not pin one (the repository's
// conventional experiment seed).
const DefaultSeed = 2011

// Defaults for unset scenario fields.
const (
	DefaultNICMBps       = 111.0                     // the paper's 1 Gbit/s achievable rate
	DefaultWindowSeconds = core.DefaultWindowSeconds // the paper's decision interval t
	defaultMixChunkBytes = 64 << 20
)

// Scenario is the root DSL object: one named, seeded, fully deterministic
// workload over the shared-NIC fleet simulator.
type Scenario struct {
	// Name identifies the scenario in results. Claims belong to the
	// built-in, not its name: a file that reuses a built-in's name
	// carries none.
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`

	// Windows is the horizon in decision windows (required unless Trace
	// is set, in which case it defaults to the trace's length, which may
	// then be at most MaxWindows).
	Windows int `json:"windows,omitempty"`
	// WindowSeconds is the decision interval t; zero means 2 s. A trace
	// replay runs the trace's window length and refuses any other.
	WindowSeconds float64 `json:"window_seconds,omitempty"`

	// Fleet is the heterogeneous stream population (required).
	Fleet []Group `json:"fleet"`

	// NICMBps is the shared NIC's nominal application-achievable
	// capacity in MB/s; zero means the paper's 111 MB/s.
	NICMBps float64 `json:"nic_mbps,omitempty"`
	// NICSigma and CPUSigma are the per-window multiplicative lognormal
	// noise sigmas of NIC capacity and per-stream compression speed.
	NICSigma float64 `json:"nic_sigma,omitempty"`
	CPUSigma float64 `json:"cpu_sigma,omitempty"`

	// Capacity, if set, multiplies NIC capacity over time (diurnal
	// background load, maintenance windows, bandwidth flaps as a square
	// wave).
	Capacity *Curve `json:"capacity,omitempty"`
	// Demand, if set, is the default per-stream offered load in MB/s;
	// groups may override it. Unset means saturating senders.
	Demand *Curve `json:"demand,omitempty"`
	// Link describes packet loss and latency.
	Link *Link `json:"link,omitempty"`

	// Trace, if set, replays a recorded acload trace
	// (internal/trace.WindowedTrace JSON): the trace's per-window byte
	// counts become the fleet-wide demand curve, split evenly across
	// streams.
	Trace string `json:"trace,omitempty"`

	// Decider names the level-selection policy driving every adaptive
	// stream (core.PolicyNames: "algone", "bandit", "ewma"); empty means
	// the paper's Algorithm 1. Stochastic policies are seeded per stream
	// from Seed, so the artifact stays byte-deterministic.
	Decider string `json:"decider,omitempty"`

	// Seed drives all stochastic components; zero means DefaultSeed.
	Seed uint64 `json:"seed,omitempty"`
	// MixChunkMB is how many megabytes a stream sends before re-drawing
	// its corpus kind from the group mix; zero means 64 MB.
	MixChunkMB float64 `json:"mix_chunk_mb,omitempty"`

	// claims are the built-in's shape assertions, evaluated by Run. Only
	// the built-in catalog sets them; a decoded file never carries any.
	claims []Claim
}

// Group is one homogeneous-policy slice of the fleet: Count streams sharing
// a tenant label, fair-share weight, a CPU-skew span and a corpus mix.
type Group struct {
	// Count is the number of streams (required, >= 1).
	Count int `json:"count"`
	// Weight is the per-stream fair-share weight; zero means 1.
	Weight float64 `json:"weight,omitempty"`
	// Tenant is the owner label aggregated in results; defaults to
	// "default".
	Tenant string `json:"tenant,omitempty"`
	// CPU spreads per-stream compression-speed factors linearly across
	// the group (heterogeneous hosts). Zero means factor 1 for all.
	CPU *Span `json:"cpu,omitempty"`
	// Mix is a weighted corpus-kind spec, e.g. "moderate=8,high=1,low=3"
	// (corpus.ParseMix); empty means MODERATE only. Streams re-draw
	// their kind from the mix every MixChunkMB megabytes, so a skewed
	// weighting yields a heavy-tailed compressibility mix over time.
	Mix string `json:"mix,omitempty"`
	// Demand overrides the scenario-level demand curve for this group.
	Demand *Curve `json:"demand,omitempty"`
}

// Span is an inclusive [Min, Max] range spread linearly across a group.
type Span struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Link is the shared link's perturbation set.
type Link struct {
	// Loss is the packet-loss fraction in [0, 0.5] over time; streams on
	// a lossy link are capped at the Mathis rate for their effective RTT
	// (base RTT + the level's per-block compression latency).
	Loss *Curve `json:"loss,omitempty"`
	// RTTms is the base round-trip time in milliseconds over time (use
	// a ramp curve for latency ramps); only meaningful with Loss.
	RTTms *Curve `json:"rtt_ms,omitempty"`
}

// Duration is a JSON duration: either a Go duration string ("90s", "1.5h")
// or a bare number of seconds. Negative, NaN and absurd values are rejected
// at decode time with typed errors.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) == 0 {
		return fieldErrf("duration", "empty")
	}
	if b[0] == '"' {
		if len(b) < 2 || b[len(b)-1] != '"' {
			return fieldErrf("duration", "unterminated string")
		}
		td, err := time.ParseDuration(string(b[1 : len(b)-1]))
		if err != nil {
			return fieldErrf("duration", "bad duration %s: %v", b, err)
		}
		return d.set(td)
	}
	var secs float64
	if _, err := fmt.Sscanf(string(b), "%g", &secs); err != nil {
		return fieldErrf("duration", "bad duration literal %s", b)
	}
	if math.IsNaN(secs) || math.IsInf(secs, 0) {
		return fieldErrf("duration", "non-finite duration %s", b)
	}
	return d.set(time.Duration(secs * float64(time.Second)))
}

func (d *Duration) set(td time.Duration) error {
	if td < 0 {
		return fieldErrf("duration", "negative duration %v", td)
	}
	if td > maxDuration {
		return fieldErrf("duration", "duration %v exceeds %v", td, maxDuration)
	}
	*d = Duration(td)
	return nil
}

// MarshalJSON renders the duration as a Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", time.Duration(d))), nil
}

// Seconds returns the duration in seconds.
func (d Duration) Seconds() float64 { return time.Duration(d).Seconds() }

// badFloat reports NaN or infinity — values JSON cannot produce but
// struct-literal authors can.
func badFloat(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// Validate checks the scenario against the DSL's contract and returns a
// typed *FieldError (wrapping ErrInvalid) on the first violation. It never
// panics, whatever the input.
func (s *Scenario) Validate() error {
	if s == nil {
		return fieldErrf("scenario", "nil scenario")
	}
	if s.Name == "" {
		return fieldErrf("name", "required")
	}
	if s.Windows < 0 || s.Windows > MaxWindows {
		return fieldErrf("windows", "must be in [0, %d], got %d", MaxWindows, s.Windows)
	}
	if s.Windows == 0 && s.Trace == "" {
		return fieldErrf("windows", "required unless a trace is replayed")
	}
	if badFloat(s.WindowSeconds) || s.WindowSeconds < 0 || s.WindowSeconds > 3600 {
		return fieldErrf("window_seconds", "must be in [0, 3600], got %v", s.WindowSeconds)
	}
	if badFloat(s.NICMBps) || s.NICMBps < 0 || s.NICMBps > 1e9 {
		return fieldErrf("nic_mbps", "must be in [0, 1e9], got %v", s.NICMBps)
	}
	if badFloat(s.NICSigma) || s.NICSigma < 0 || s.NICSigma > 2 {
		return fieldErrf("nic_sigma", "must be in [0, 2], got %v", s.NICSigma)
	}
	if badFloat(s.CPUSigma) || s.CPUSigma < 0 || s.CPUSigma > 2 {
		return fieldErrf("cpu_sigma", "must be in [0, 2], got %v", s.CPUSigma)
	}
	if badFloat(s.MixChunkMB) || s.MixChunkMB < 0 || s.MixChunkMB > 1e6 {
		return fieldErrf("mix_chunk_mb", "must be in [0, 1e6], got %v", s.MixChunkMB)
	}
	if s.Decider != "" {
		if _, err := core.NewPolicy(s.Decider, core.Config{Levels: 1}); err != nil {
			return fieldErrf("decider", "%v", err)
		}
	}
	if len(s.Fleet) == 0 {
		return fieldErrf("fleet", "at least one group required")
	}
	if len(s.Fleet) > MaxGroups {
		return fieldErrf("fleet", "at most %d groups, got %d", MaxGroups, len(s.Fleet))
	}
	total := 0
	for gi := range s.Fleet {
		g := &s.Fleet[gi]
		prefix := fmt.Sprintf("fleet[%d]", gi)
		if g.Count < 1 {
			return fieldErrf(prefix+".count", "must be >= 1, got %d", g.Count)
		}
		total += g.Count
		if total > MaxStreams {
			return fieldErrf("fleet", "more than %d streams", MaxStreams)
		}
		if badFloat(g.Weight) || g.Weight < 0 || g.Weight > 1e6 {
			return fieldErrf(prefix+".weight", "must be in [0, 1e6], got %v", g.Weight)
		}
		if g.CPU != nil {
			if badFloat(g.CPU.Min) || badFloat(g.CPU.Max) ||
				g.CPU.Min <= 0 || g.CPU.Max < g.CPU.Min || g.CPU.Max > 100 {
				return fieldErrf(prefix+".cpu", "need 0 < min <= max <= 100, got [%v, %v]", g.CPU.Min, g.CPU.Max)
			}
		}
		if _, err := corpus.ParseMix(g.Mix); err != nil {
			return fieldErrf(prefix+".mix", "%v", err)
		}
		if err := g.Demand.validate(prefix+".demand", curveDemand); err != nil {
			return err
		}
	}
	if err := s.Capacity.validate("capacity", curveMultiplier); err != nil {
		return err
	}
	if err := s.Demand.validate("demand", curveDemand); err != nil {
		return err
	}
	if s.Link != nil {
		if err := s.Link.Loss.validate("link.loss", curveLoss); err != nil {
			return err
		}
		if err := s.Link.RTTms.validate("link.rtt_ms", curveRTT); err != nil {
			return err
		}
	}
	return nil
}
