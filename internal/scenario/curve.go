package scenario

import (
	"math"
	"strconv"

	"adaptio/internal/xrand"
)

// Curve is a time-varying scalar: the DSL's building block for load shapes,
// capacity flaps, loss schedules and latency ramps. Evaluation is a pure
// O(1) function of time — no precomputed event lists, no internal state —
// so a hostile scenario file cannot make a curve allocate, and two workers
// evaluating the same curve at the same instant always agree.
//
// Kinds and their fields:
//
//	constant  value
//	diurnal   value (midline), amplitude (relative, [0,1]), period, phase
//	step      value (before), to (after), at
//	ramp      value (start level), to (end level), at (ramp start), over
//	square    high, low, period, duty (high fraction, (0,1)), phase
//	burst     value (baseline), high (burst level), every (slot length),
//	          width (burst length ≤ every), prob (per-slot burst
//	          probability), seed (hash salt; 0 = scenario seed)
//	product   factors (≤ MaxCurveFactors curves, multiplied pointwise)
//
// diurnal evaluates value·(1 + amplitude·sin(2π(t/period + phase))); burst
// decides per slot k = ⌊t/every⌋ from a hash of (seed, k) whether the first
// width seconds of that slot run at high — Poisson-like arrivals without an
// event queue.
type Curve struct {
	Kind string `json:"kind"`

	Value     float64  `json:"value,omitempty"`
	Amplitude float64  `json:"amplitude,omitempty"`
	Period    Duration `json:"period,omitempty"`
	Phase     float64  `json:"phase,omitempty"`

	At Duration `json:"at,omitempty"`
	To float64  `json:"to,omitempty"`

	Over Duration `json:"over,omitempty"`

	High float64 `json:"high,omitempty"`
	Low  float64 `json:"low,omitempty"`
	Duty float64 `json:"duty,omitempty"`

	Every Duration `json:"every,omitempty"`
	Width Duration `json:"width,omitempty"`
	Prob  float64  `json:"prob,omitempty"`
	Seed  uint64   `json:"seed,omitempty"`

	Factors []Curve `json:"factors,omitempty"`
}

// curveMode bounds the levels a curve may emit, by role.
type curveMode struct {
	role string
	max  float64
}

var (
	curveDemand     = curveMode{"demand (MB/s)", 1e9}
	curveMultiplier = curveMode{"multiplier", 1e3}
	curveLoss       = curveMode{"loss fraction", 0.5}
	curveRTT        = curveMode{"RTT (ms)", 60_000}
)

// validate checks the curve tree (nil is valid: "absent"). All level fields
// must be finite, non-negative and within the mode's ceiling; all durations
// non-negative (struct literals bypass Duration's decoder, so re-check);
// periodic kinds need a positive period.
func (c *Curve) validate(field string, mode curveMode) error {
	return c.validateDepth(field, mode, 0)
}

func (c *Curve) validateDepth(field string, mode curveMode, depth int) error {
	if c == nil {
		return nil
	}
	if depth > MaxCurveDepth {
		return fieldErrf(field, "curve nesting deeper than %d", MaxCurveDepth)
	}
	lvl := func(sub string, v float64) error {
		if badFloat(v) || v < 0 || v > mode.max {
			return fieldErrf(field+"."+sub, "%s must be in [0, %g], got %v", mode.role, mode.max, v)
		}
		return nil
	}
	dur := func(sub string, d Duration) error {
		if d < 0 || d > Duration(maxDuration) {
			return fieldErrf(field+"."+sub, "duration out of range: %v", d.Seconds())
		}
		return nil
	}
	for _, e := range []error{
		dur("period", c.Period), dur("at", c.At), dur("over", c.Over),
		dur("every", c.Every), dur("width", c.Width),
	} {
		if e != nil {
			return e
		}
	}
	switch c.Kind {
	case "constant":
		return lvl("value", c.Value)
	case "diurnal":
		if err := lvl("value", c.Value); err != nil {
			return err
		}
		if badFloat(c.Amplitude) || c.Amplitude < 0 || c.Amplitude > 1 {
			return fieldErrf(field+".amplitude", "must be in [0, 1], got %v", c.Amplitude)
		}
		if c.Period <= 0 {
			return fieldErrf(field+".period", "diurnal needs period > 0")
		}
		if badFloat(c.Phase) {
			return fieldErrf(field+".phase", "must be finite")
		}
		// Peak value*(1+amplitude) must respect the ceiling too.
		return lvl("value", c.Value*(1+c.Amplitude))
	case "step":
		if err := lvl("value", c.Value); err != nil {
			return err
		}
		return lvl("to", c.To)
	case "ramp":
		if err := lvl("value", c.Value); err != nil {
			return err
		}
		if c.Over <= 0 {
			return fieldErrf(field+".over", "ramp needs over > 0")
		}
		return lvl("to", c.To)
	case "square":
		if err := lvl("high", c.High); err != nil {
			return err
		}
		if err := lvl("low", c.Low); err != nil {
			return err
		}
		if c.Period <= 0 {
			return fieldErrf(field+".period", "square needs period > 0")
		}
		if badFloat(c.Duty) || c.Duty <= 0 || c.Duty >= 1 {
			return fieldErrf(field+".duty", "must be in (0, 1), got %v", c.Duty)
		}
		if badFloat(c.Phase) {
			return fieldErrf(field+".phase", "must be finite")
		}
		return nil
	case "burst":
		if err := lvl("value", c.Value); err != nil {
			return err
		}
		if err := lvl("high", c.High); err != nil {
			return err
		}
		if c.Every <= 0 {
			return fieldErrf(field+".every", "burst needs every > 0")
		}
		if c.Width <= 0 || c.Width > c.Every {
			return fieldErrf(field+".width", "burst needs 0 < width <= every")
		}
		if badFloat(c.Prob) || c.Prob < 0 || c.Prob > 1 {
			return fieldErrf(field+".prob", "must be in [0, 1], got %v", c.Prob)
		}
		return nil
	case "product":
		if len(c.Factors) == 0 {
			return fieldErrf(field+".factors", "product needs at least one factor")
		}
		if len(c.Factors) > MaxCurveFactors {
			return fieldErrf(field+".factors", "at most %d factors, got %d", MaxCurveFactors, len(c.Factors))
		}
		for i := range c.Factors {
			sub := field + ".factors[" + strconv.Itoa(i) + "]"
			if err := c.Factors[i].validateDepth(sub, mode, depth+1); err != nil {
				return err
			}
		}
		return nil
	default:
		return fieldErrf(field+".kind", "unknown curve kind %q", c.Kind)
	}
}

// eval returns the curve's level at simulated time t seconds. A validated
// curve never returns NaN/Inf/negative; an unvalidated one degrades to 0
// rather than panicking. seed substitutes for burst curves whose Seed is 0.
func (c *Curve) eval(t float64, seed uint64) float64 {
	if c == nil {
		return 0
	}
	switch c.Kind {
	case "constant":
		return c.Value
	case "diurnal":
		p := c.Period.Seconds()
		if p <= 0 {
			return c.Value
		}
		return c.Value * (1 + c.Amplitude*math.Sin(2*math.Pi*(t/p+c.Phase)))
	case "step":
		if t < c.At.Seconds() {
			return c.Value
		}
		return c.To
	case "ramp":
		start, over := c.At.Seconds(), c.Over.Seconds()
		if t <= start || over <= 0 {
			return c.Value
		}
		if t >= start+over {
			return c.To
		}
		return c.Value + (c.To-c.Value)*(t-start)/over
	case "square":
		p := c.Period.Seconds()
		if p <= 0 {
			return c.Low
		}
		pos := math.Mod(t/p+c.Phase, 1)
		if pos < 0 {
			pos++
		}
		if pos < c.Duty {
			return c.High
		}
		return c.Low
	case "burst":
		every := c.Every.Seconds()
		if every <= 0 {
			return c.Value
		}
		slot := math.Floor(t / every)
		if slot < 0 || slot > 1e15 {
			return c.Value
		}
		s := c.Seed
		if s == 0 {
			s = seed
		}
		if burstHash(s, uint64(slot)) < c.Prob && t-slot*every < c.Width.Seconds() {
			return c.High
		}
		return c.Value
	case "product":
		v := 1.0
		for i := range c.Factors {
			v *= c.Factors[i].eval(t, seed)
		}
		return v
	default:
		return 0
	}
}

// burstHash maps (seed, slot) to a uniform float64 in [0, 1) via a
// splitmix64 finalizer — the stateless coin each burst slot flips.
func burstHash(seed, slot uint64) float64 {
	x := xrand.Mix(seed ^ (slot+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9)
	return float64(x>>11) / (1 << 53)
}

// fn compiles the curve into a closure suitable for cloudsim's FleetEnv
// hooks; nil curves compile to nil so the simulator skips the hook.
func (c *Curve) fn(seed uint64) func(float64) float64 {
	if c == nil {
		return nil
	}
	return func(t float64) float64 { return c.eval(t, seed) }
}

// scaled compiles the curve with a multiplicative post-scale (unit
// conversions such as ms → s).
func (c *Curve) scaled(seed uint64, k float64) func(float64) float64 {
	if c == nil {
		return nil
	}
	return func(t float64) float64 { return c.eval(t, seed) * k }
}
