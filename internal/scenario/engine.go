package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"adaptio/internal/cloudsim"
	"adaptio/internal/coord"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/trace"
	"adaptio/internal/xrand"
)

// Rig names a deliberate property-breaker: the scenario suite's sentinel
// mechanism (the DisableRevert / CheatFreeze lineage). Running a built-in
// scenario with a rig must make the specific claim the rig attacks fail —
// that failure is what proves the claim is load-bearing rather than
// vacuously true. Rigs never appear outside tests and sentinel CLI runs.
type Rig string

// The rig catalog.
const (
	// RigNone runs the scenario as written.
	RigNone Rig = ""
	// RigPinAdaptiveHeavy pins the adaptive variant's streams to the top
	// level, erasing adaptivity (attacks "adaptive beats static-HEAVY").
	RigPinAdaptiveHeavy Rig = "pin-adaptive-heavy"
	// RigPinAdaptiveNO pins the adaptive variant to no compression
	// (attacks "adaptive tracks the best static choice").
	RigPinAdaptiveNO Rig = "pin-adaptive-no"
	// RigNoLoss strips the link's loss model (attacks "under loss, LIGHT
	// overtakes HEAVY": without loss the ordering reverses).
	RigNoLoss Rig = "no-loss"
	// RigFlatWeights forces every stream's fair-share weight to 1
	// (attacks weighted-fairness claims of heterogeneous fleets).
	RigFlatWeights Rig = "flat-weights"
	// RigOscillate replaces the adaptive and coordinated variants'
	// policies with a scheme that flips levels every window (attacks
	// every flap- and switch-bound claim).
	RigOscillate Rig = "oscillate"
)

// ParseRig parses a rig name ("" and "none" mean RigNone).
func ParseRig(s string) (Rig, error) {
	switch Rig(s) {
	case RigNone, Rig("none"):
		return RigNone, nil
	case RigPinAdaptiveHeavy, RigPinAdaptiveNO, RigNoLoss, RigFlatWeights, RigOscillate:
		return Rig(s), nil
	default:
		return RigNone, fmt.Errorf("scenario: unknown rig %q", s)
	}
}

// Options parameterize a scenario run.
type Options struct {
	// Parallel is the number of variants simulated concurrently; values
	// < 1 mean 1. Results are byte-identical for every value — each
	// variant is a self-contained simulation with its own RNGs, schemes
	// and coordinator, so scheduling order cannot leak into them.
	Parallel int
	// Rig applies a sentinel property-breaker; see Rig.
	Rig Rig
}

// VariantNames is the fixed variant set every scenario runs, in artifact
// order: the adaptive solo-decider fleet, the coordinated fleet, and the
// four static levels as baselines.
var VariantNames = []string{
	"adaptive", "coordinated",
	"static-no", "static-light", "static-medium", "static-heavy",
}

// TenantTotal aggregates one tenant's streams within a variant.
type TenantTotal struct {
	Tenant    string `json:"tenant"`
	Streams   int    `json:"streams"`
	AppBytes  int64  `json:"app_bytes"`
	WireBytes int64  `json:"wire_bytes"`
}

// VariantResult is one variant's outcome: exact byte totals, harness-counted
// switch/flap metrics, the per-window byte series (the deterministic
// regression surface golden files pin) and per-tenant aggregates.
type VariantResult struct {
	Name              string  `json:"name"`
	AppBytes          int64   `json:"app_bytes"`
	WireBytes         int64   `json:"wire_bytes"`
	GoodputMBps       float64 `json:"goodput_mbps"`
	Switches          int     `json:"switches"`
	Flaps             int     `json:"flaps"`
	MaxStreamSwitches int     `json:"max_stream_switches"`
	MaxStreamFlaps    int     `json:"max_stream_flaps"`
	// Probes and WastedProbes sum the solo deciders' probe economics over
	// the variant's streams (zero for static, coordinated and rigged
	// variants, whose schemes are not core.Deciders). WastedProbes is the
	// probe-economy axis of the decider acceptance bound.
	Probes          int           `json:"probes,omitempty"`
	WastedProbes    int           `json:"wasted_probes,omitempty"`
	WindowAppBytes  []int64       `json:"window_app_bytes"`
	WindowWireBytes []int64       `json:"window_wire_bytes"`
	Tenants         []TenantTotal `json:"tenants"`
}

// ClaimResult is one evaluated claim.
type ClaimResult struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Result is a full scenario run: all variants plus, for built-in scenarios,
// the evaluated claims. Marshaling a Result is byte-deterministic for a
// given (scenario, seed, rig): only struct fields in fixed order, integer
// byte series, and floats derived from those integers — no wall-clock, no
// map iteration, no pointer identity.
type Result struct {
	Scenario         string          `json:"scenario"`
	Seed             uint64          `json:"seed"`
	Decider          string          `json:"decider,omitempty"`
	Rig              string          `json:"rig,omitempty"`
	Streams          int             `json:"streams"`
	Windows          int             `json:"windows"`
	WindowSeconds    float64         `json:"window_seconds"`
	SimulatedSeconds float64         `json:"simulated_seconds"`
	Variants         []VariantResult `json:"variants"`
	Claims           []ClaimResult   `json:"claims,omitempty"`
}

// Variant returns the named variant's result, or nil.
func (r *Result) Variant(name string) *VariantResult {
	for i := range r.Variants {
		if r.Variants[i].Name == name {
			return &r.Variants[i]
		}
	}
	return nil
}

// MarshalArtifact renders the result as the canonical expdriver JSON
// artifact: indented, trailing newline, byte-identical across runs and
// across worker parallelism for the same (scenario, seed, rig).
func (r *Result) MarshalArtifact() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshal artifact: %w", err)
	}
	return append(data, '\n'), nil
}

// ClaimsPass reports whether every evaluated claim passed (vacuously true
// for scenarios without claims).
func (r *Result) ClaimsPass() bool {
	for _, c := range r.Claims {
		if !c.Pass {
			return false
		}
	}
	return true
}

// oscillator is RigOscillate's policy: it flips between levels 0 and 1
// every window, the worst-behaved scheme the ladder admits.
type oscillator struct{ level int }

func (o *oscillator) Observe(float64) int { o.level ^= 1; return o.level }
func (o *oscillator) Level() int          { return o.level }

// streamSpec is one compiled stream: everything variant-independent.
type streamSpec struct {
	weight float64
	tenant string
	cpu    float64
	seed   uint64 // per-stream seed (also feeds stochastic deciders)
	kind   cloudsim.KindSchedule
	demand func(tSec float64) float64
}

// engine holds a compiled scenario ready to run its variants.
type engine struct {
	sc       Scenario // effective copy, defaults applied
	specs    []streamSpec
	profiles []cloudsim.CodecProfile
	rig      Rig
}

// deriveSeed maps (seed, index) to a per-stream seed via a splitmix64 step,
// so sibling streams draw independent noise and burst phases.
func deriveSeed(seed uint64, i int) uint64 {
	x := xrand.Mix(seed + 0x9e3779b97f4a7c15*uint64(i+1))
	if x == 0 {
		x = 1
	}
	return x
}

// mixKindSchedule re-draws the stream's corpus kind from the weighted mix
// every chunkBytes of application data, hashing (seed, chunk): a skewed mix
// becomes a heavy-tailed compressibility process without any mutable state.
func mixKindSchedule(mix []corpus.Kind, chunkBytes int64, seed uint64) cloudsim.KindSchedule {
	if len(mix) == 1 {
		return cloudsim.ConstantKind(mix[0])
	}
	return func(off int64) corpus.Kind {
		if off < 0 {
			off = 0
		}
		chunk := uint64(off / chunkBytes)
		return mix[int(burstHash(seed, chunk)*float64(len(mix)))]
	}
}

// compile resolves defaults, loads a replay trace if any, and expands the
// fleet groups into per-stream specs.
func compile(sc *Scenario, rig Rig) (*engine, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	e := &engine{sc: *sc, rig: rig, profiles: cloudsim.ReferenceProfiles()}
	eff := &e.sc

	// Trace replay: the recorded per-window byte counts become the
	// fleet-wide demand curve, split evenly across streams.
	var traceDemand []float64 // fleet-wide MB/s per window
	if eff.Trace != "" {
		wt, err := trace.LoadWindowed(eff.Trace)
		if err != nil {
			return nil, err
		}
		// Demand is looked up by window number, so the replay must run
		// the trace's own window length.
		if eff.WindowSeconds == 0 {
			eff.WindowSeconds = wt.WindowSeconds
		} else if eff.WindowSeconds != wt.WindowSeconds {
			return nil, fieldErrf("window_seconds", "%v differs from the %v s windows of replay trace %q",
				eff.WindowSeconds, wt.WindowSeconds, eff.Trace)
		}
		if eff.Windows == 0 || eff.Windows > len(wt.Windows) {
			eff.Windows = len(wt.Windows)
		}
		if eff.Windows > MaxWindows {
			return nil, fieldErrf("trace", "replay trace %q holds %d windows, more than %d: set windows to replay a prefix",
				eff.Trace, eff.Windows, MaxWindows)
		}
		traceDemand = make([]float64, len(wt.Windows))
		for i, w := range wt.Windows {
			traceDemand[i] = float64(w.AppBytes) / wt.WindowSeconds / 1e6
		}
	}
	if eff.Seed == 0 {
		eff.Seed = DefaultSeed
	}
	if eff.WindowSeconds == 0 {
		eff.WindowSeconds = DefaultWindowSeconds
	}
	if eff.NICMBps == 0 {
		eff.NICMBps = DefaultNICMBps
	}
	if eff.MixChunkMB == 0 {
		eff.MixChunkMB = defaultMixChunkBytes / 1e6
	}
	if eff.Windows <= 0 {
		return nil, fieldErrf("windows", "replay trace %q is empty", eff.Trace)
	}

	total := 0
	for i := range eff.Fleet {
		total += eff.Fleet[i].Count
	}
	chunkBytes := int64(eff.MixChunkMB * 1e6)
	if chunkBytes < 1 {
		chunkBytes = 1
	}

	e.specs = make([]streamSpec, 0, total)
	idx := 0
	for gi := range eff.Fleet {
		g := &eff.Fleet[gi]
		tenant := g.Tenant
		if tenant == "" {
			tenant = g.Name
		}
		if tenant == "" {
			tenant = "default"
		}
		weight := g.Weight
		if weight == 0 || rig == RigFlatWeights {
			weight = 1
		}
		mixSpec := g.Mix
		var mix []corpus.Kind
		if mixSpec == "" {
			mix = []corpus.Kind{corpus.Moderate}
		} else {
			var err error
			mix, err = corpus.ParseMix(mixSpec)
			if err != nil {
				return nil, fieldErrf(fmt.Sprintf("fleet[%d].mix", gi), "%v", err)
			}
		}
		demandCurve := g.Demand
		if demandCurve == nil {
			demandCurve = eff.Demand
		}
		for j := 0; j < g.Count; j++ {
			cpu := 1.0
			if g.CPU != nil {
				if g.Count == 1 {
					cpu = (g.CPU.Min + g.CPU.Max) / 2
				} else {
					cpu = g.CPU.Min + (g.CPU.Max-g.CPU.Min)*float64(j)/float64(g.Count-1)
				}
			}
			sseed := deriveSeed(eff.Seed, idx)
			var demand func(float64) float64
			switch {
			case traceDemand != nil:
				per := traceDemand
				n, ws := float64(total), eff.WindowSeconds
				demand = func(t float64) float64 {
					w := int(math.Floor(t/ws + 0.5))
					if w < 0 || w >= len(per) {
						return 0
					}
					return per[w] / n
				}
			case demandCurve != nil:
				demand = demandCurve.fn(sseed)
			}
			e.specs = append(e.specs, streamSpec{
				weight: weight,
				tenant: tenant,
				cpu:    cpu,
				seed:   sseed,
				kind:   mixKindSchedule(mix, chunkBytes, sseed),
				demand: demand,
			})
			idx++
		}
	}
	return e, nil
}

// env compiles the scenario's link and capacity perturbations into a
// cloudsim FleetEnv (nil when the scenario has none).
func (e *engine) env() *cloudsim.FleetEnv {
	sc := &e.sc
	var capacity, sigma, loss, rtt func(float64) float64
	capCurve := sc.Capacity
	var flap *Curve
	if sc.Link != nil {
		flap = sc.Link.Flap
		sigma = sc.Link.JitterSigma.fn(sc.Seed)
		if e.rig != RigNoLoss {
			loss = sc.Link.Loss.fn(sc.Seed)
			rtt = sc.Link.RTTms.scaled(sc.Seed, 1e-3)
		}
	}
	switch {
	case capCurve != nil && flap != nil:
		cf, ff := capCurve.fn(sc.Seed), flap.fn(sc.Seed)
		capacity = func(t float64) float64 { return cf(t) * ff(t) }
	case capCurve != nil:
		capacity = capCurve.fn(sc.Seed)
	case flap != nil:
		capacity = flap.fn(sc.Seed)
	}
	if capacity == nil && sigma == nil && loss == nil && rtt == nil {
		return nil
	}
	return &cloudsim.FleetEnv{Capacity: capacity, ExtraSigma: sigma, Loss: loss, RTTSeconds: rtt}
}

// schemeFactory returns the per-stream scheme constructor for a variant,
// with the rig's substitutions applied.
func (e *engine) schemeFactory(variant string) (func(spec streamSpec) core.Policy, error) {
	levels := len(e.profiles)
	switch variant {
	case "adaptive":
		switch e.rig {
		case RigPinAdaptiveHeavy:
			return func(streamSpec) core.Policy { return core.Static(levels - 1) }, nil
		case RigPinAdaptiveNO:
			return func(streamSpec) core.Policy { return core.Static(0) }, nil
		case RigOscillate:
			return func(streamSpec) core.Policy { return &oscillator{} }, nil
		}
		return func(spec streamSpec) core.Policy {
			return core.MustNewPolicy(e.sc.Decider, core.Config{
				Levels: levels,
				Seed:   spec.seed,
			})
		}, nil
	case "coordinated":
		if e.rig == RigOscillate {
			return func(streamSpec) core.Policy { return &oscillator{} }, nil
		}
		c, err := coord.New(coord.Config{
			BudgetBytesPerSec: e.sc.NICMBps * 1e6,
			Levels:            levels,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: coordinator: %w", err)
		}
		return func(spec streamSpec) core.Policy {
			return c.Register(coord.StreamConfig{Weight: spec.weight, Tenant: spec.tenant})
		}, nil
	case "static-no":
		return func(streamSpec) core.Policy { return core.Static(0) }, nil
	case "static-light":
		return func(streamSpec) core.Policy { return core.Static(1) }, nil
	case "static-medium":
		return func(streamSpec) core.Policy { return core.Static(2) }, nil
	case "static-heavy":
		return func(streamSpec) core.Policy { return core.Static(levels - 1) }, nil
	default:
		return nil, fmt.Errorf("scenario: unknown variant %q", variant)
	}
}

// runVariant executes one variant as a self-contained fleet simulation.
func (e *engine) runVariant(variant string) (VariantResult, error) {
	vr := VariantResult{Name: variant}
	mk, err := e.schemeFactory(variant)
	if err != nil {
		return vr, err
	}
	streams := make([]cloudsim.FleetStream, len(e.specs))
	for i, spec := range e.specs {
		streams[i] = cloudsim.FleetStream{
			Kind:       spec.kind,
			Scheme:     mk(spec),
			Weight:     spec.weight,
			CPUFactor:  spec.cpu,
			Tenant:     spec.tenant,
			DemandMBps: spec.demand,
		}
	}
	vr.WindowAppBytes = make([]int64, 0, e.sc.Windows)
	vr.WindowWireBytes = make([]int64, 0, e.sc.Windows)
	res, err := cloudsim.RunFleet(cloudsim.FleetConfig{
		NICMBps:       e.sc.NICMBps,
		Windows:       e.sc.Windows,
		WindowSeconds: e.sc.WindowSeconds,
		Profiles:      e.profiles,
		Streams:       streams,
		Seed:          e.sc.Seed,
		NICSigma:      e.sc.NICSigma,
		CPUSigma:      e.sc.CPUSigma,
		Env:           e.env(),
		Trace: func(s cloudsim.FleetWindowSample) {
			vr.WindowAppBytes = append(vr.WindowAppBytes, s.AppBytes)
			vr.WindowWireBytes = append(vr.WindowWireBytes, s.WireBytes)
		},
	})
	if err != nil {
		return vr, fmt.Errorf("scenario: variant %s: %w", variant, err)
	}
	vr.AppBytes, vr.WireBytes = res.AppBytes, res.WireBytes
	vr.Switches, vr.Flaps = res.Switches, res.Flaps
	for i := range streams {
		if d, ok := streams[i].Scheme.(core.Decider); ok {
			ps := d.PolicyStats()
			vr.Probes += ps.Probes
			vr.WastedProbes += ps.WastedProbes
		}
	}
	vr.GoodputMBps = res.GoodputMBps(e.sc.WindowSeconds)
	byTenant := make(map[string]*TenantTotal)
	for _, ps := range res.PerStream {
		if ps.Switches > vr.MaxStreamSwitches {
			vr.MaxStreamSwitches = ps.Switches
		}
		if ps.Flaps > vr.MaxStreamFlaps {
			vr.MaxStreamFlaps = ps.Flaps
		}
		tt := byTenant[ps.Tenant]
		if tt == nil {
			tt = &TenantTotal{Tenant: ps.Tenant}
			byTenant[ps.Tenant] = tt
		}
		tt.Streams++
		tt.AppBytes += ps.AppBytes
		tt.WireBytes += ps.WireBytes
	}
	for _, tt := range byTenant {
		vr.Tenants = append(vr.Tenants, *tt)
	}
	sort.Slice(vr.Tenants, func(i, j int) bool { return vr.Tenants[i].Tenant < vr.Tenants[j].Tenant })
	return vr, nil
}

// Run executes the scenario: every variant in VariantNames, optionally in
// parallel, then the scenario's registered claims. The returned Result is
// identical — byte-for-byte once marshaled — for any Options.Parallel.
func Run(sc *Scenario, opts Options) (*Result, error) {
	e, err := compile(sc, opts.Rig)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Scenario:         e.sc.Name,
		Seed:             e.sc.Seed,
		Decider:          e.sc.Decider,
		Rig:              string(opts.Rig),
		Streams:          len(e.specs),
		Windows:          e.sc.Windows,
		WindowSeconds:    e.sc.WindowSeconds,
		SimulatedSeconds: float64(e.sc.Windows) * e.sc.WindowSeconds,
		Variants:         make([]VariantResult, len(VariantNames)),
	}

	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, len(VariantNames))
	var wg sync.WaitGroup
	for i, name := range VariantNames {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res.Variants[i], errs[i] = e.runVariant(name)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, cl := range ClaimsFor(e.sc.Name) {
		res.Claims = append(res.Claims, cl.evaluate(&e.sc, res))
	}
	return res, nil
}
