package cloudsim

import (
	"errors"
	"fmt"
	"math"

	"adaptio/internal/coord"
	"adaptio/internal/core"
	"adaptio/internal/xrand"
)

// This file is the shared-NIC fleet model: N concurrent streams of one host
// contending for a single simulated NIC, the setting the coordinator
// (internal/coord) exists for. RunTransfer models one stream against
// *background* traffic it cannot see; RunFleet models the streams against
// *each other*, which is what turns N solo deciders into mutual noise
// sources — stream A's probe shifts everyone's share, B..N observe a rate
// change that has nothing to do with their own level, and the fleet flaps.
//
// The NIC divides wire capacity by weighted max-min fairness (water-fill),
// the behaviour of a host-side WFQ qdisc: each unsatisfied stream receives
// capacity proportional to its weight, streams demanding less than their
// share keep the smaller demand, and the surplus is redistributed. The
// redistribution is the coupling that makes contention contagious: whether
// stream i is NIC-bound depends on every other stream's demand.

// FleetStream describes one of the host's concurrent streams.
type FleetStream struct {
	// Kind schedules the stream's data compressibility by its own
	// application-byte offset.
	Kind KindSchedule
	// Scheme picks the stream's compression levels. Every window reports
	// its rate and byte totals; the NIC model displays no guest metrics.
	Scheme core.Policy
	// Weight is the stream's share weight in the NIC's weighted fair
	// queueing; zero means 1.
	Weight float64
	// CPUFactor scales the stream's compression throughput relative to
	// the profile ladder (crowded cores compress slower); zero means 1.
	CPUFactor float64
	// Tenant is an owner label carried into the per-stream results.
	Tenant string
	// DemandMBps, if non-nil, is the stream's offered application load at
	// simulated time t in MB/s: the stream sends at most this rate even
	// when CPU and NIC would allow more (request-driven traffic instead
	// of a saturating bulk sender). Negative values count as 0. Must be a
	// pure function of t. Nil means a saturating sender.
	DemandMBps func(tSec float64) float64
}

// FleetConfig describes a shared-NIC fleet run.
type FleetConfig struct {
	// NICMBps is the host NIC's wire-layer capacity shared by all
	// streams, in MB/s. Zero means the Native platform's 1 Gbit/s
	// achievable rate.
	NICMBps float64
	// Windows is the number of decision windows to simulate.
	Windows int
	// WindowSeconds is the decision interval t; zero means the paper's 2 s.
	WindowSeconds float64
	// Profiles is the codec profile ladder (index = level).
	Profiles []CodecProfile
	// Streams is the fleet; all share the NIC for the whole run.
	Streams []FleetStream
	// Seed drives all stochastic components; equal seeds give
	// bit-identical runs.
	Seed uint64
	// NICSigma is the per-window multiplicative lognormal noise on NIC
	// capacity (co-located hosts' traffic). Zero means a quiet NIC.
	NICSigma float64
	// CPUSigma is the per-stream per-window noise on compression
	// throughput (scheduling jitter). Zero means none.
	CPUSigma float64
	// Env, if non-nil, applies time-varying environment perturbations:
	// capacity curves, jitter, packet loss (see FleetEnv).
	Env *FleetEnv
	// Trace, if non-nil, receives one aggregate sample per window.
	Trace func(FleetWindowSample)
}

// FleetWindowSample is one decision window of a fleet run, aggregated.
type FleetWindowSample struct {
	Window   int
	Time     float64 // simulated seconds at the start of the window
	AppMBps  float64 // fleet-wide application-layer throughput
	WireMBps float64 // fleet-wide wire-layer throughput (≤ NIC capacity)
	// AppBytes and WireBytes are the window's exact fleet-wide byte
	// totals (the integers the per-stream results accumulate), which is
	// what the scenario engine's deterministic artifacts record.
	AppBytes  int64
	WireBytes int64
}

// FleetStreamResult is one stream's totals.
type FleetStreamResult struct {
	AppBytes   int64
	WireBytes  int64
	Switches   int
	Flaps      int
	FinalLevel int
	Tenant     string
}

// FleetResult summarizes a fleet run.
type FleetResult struct {
	// AppBytes is the fleet's aggregate goodput in application bytes —
	// the quantity the coordinator exists to maximize.
	AppBytes  int64
	WireBytes int64
	// Switches and Flaps are harness-counted across all streams.
	Switches  int
	Flaps     int
	Windows   int
	PerStream []FleetStreamResult
}

// GoodputMBps is the fleet's aggregate application-layer throughput.
func (r FleetResult) GoodputMBps(windowSeconds float64) float64 {
	if r.Windows == 0 || windowSeconds <= 0 {
		return 0
	}
	return float64(r.AppBytes) / 1e6 / (float64(r.Windows) * windowSeconds)
}

// fleetStreamState is the simulator's per-stream mutable state.
type fleetStreamState struct {
	cfg       FleetStream
	rng       *xrand.RNG
	level     int
	sentApp   int64 // drives the kind schedule
	appBytes  int64
	wireBytes int64

	switches, flaps int
	lastSwitchWin   int
	lastSwitchDir   int
}

// RunFleet simulates cfg.Windows decision windows of the whole fleet
// sharing one NIC and returns per-stream and aggregate totals.
//
// Per window, for each stream: the CPU-bound application rate is the
// pipeline rate of RunTransfer's sender stage (compression plus TCP-stack
// cost, scaled by the stream's CPUFactor and jitter); its wire demand is
// that rate times the level's ratio. The NIC then water-fills wire capacity
// across demands by weight, and each stream's achieved application rate is
// its wire allocation divided by its ratio (capped by its CPU-bound rate).
// Schemes observe the achieved rate — never the demand — exactly as a real
// sender only observes what the contended link let through.
//
// A level switch reversing the stream's previous switch direction within
// coord.FlapWindow windows counts as a flap. The harness counts switches and
// flaps itself, from the levels the schemes actually return, so a scheme
// cannot game the flap metric by under-reporting.
func RunFleet(cfg FleetConfig) (FleetResult, error) {
	var res FleetResult
	if len(cfg.Streams) == 0 {
		return res, errors.New("cloudsim: fleet needs at least one stream")
	}
	if cfg.Windows <= 0 {
		return res, errors.New("cloudsim: fleet needs Windows > 0")
	}
	if err := ValidateLadder(cfg.Profiles); err != nil {
		return res, err
	}
	if cfg.WindowSeconds <= 0 {
		cfg.WindowSeconds = core.DefaultWindowSeconds
	}
	if cfg.NICMBps == 0 {
		cfg.NICMBps = netTable[Native].appMBps
	}
	if cfg.NICMBps < 0 {
		return res, fmt.Errorf("cloudsim: negative NIC capacity %v", cfg.NICMBps)
	}

	rng := xrand.New(cfg.Seed ^ 0xF1EE7)
	nicRNG := rng.Fork()
	states := make([]*fleetStreamState, len(cfg.Streams))
	for i, sc := range cfg.Streams {
		if sc.Scheme == nil {
			return res, fmt.Errorf("cloudsim: stream %d has nil scheme", i)
		}
		if sc.Kind == nil {
			return res, fmt.Errorf("cloudsim: stream %d has nil kind schedule", i)
		}
		lvl := sc.Scheme.Level()
		if lvl < 0 || lvl >= len(cfg.Profiles) {
			return res, fmt.Errorf("cloudsim: stream %d starts at invalid level %d", i, lvl)
		}
		if sc.Weight == 0 {
			sc.Weight = 1
		}
		if sc.Weight < 0 {
			return res, fmt.Errorf("cloudsim: stream %d has negative weight", i)
		}
		if sc.CPUFactor == 0 {
			sc.CPUFactor = 1
		}
		if sc.CPUFactor < 0 {
			return res, fmt.Errorf("cloudsim: stream %d has negative CPU factor", i)
		}
		states[i] = &fleetStreamState{cfg: sc, rng: rng.Fork(), level: lvl, lastSwitchWin: -1}
	}

	n := len(states)
	demand := make([]float64, n) // wire MB/s each stream could push
	weight := make([]float64, n)
	ratio := make([]float64, n)
	cpuApp := make([]float64, n) // CPU-bound application MB/s
	alloc := make([]float64, n)

	for w := 0; w < cfg.Windows; w++ {
		t := float64(w) * cfg.WindowSeconds

		// Resolve the window's environment: capacity multiplier, jitter
		// sigma and the loss model's parameters.
		capMul, sigma, loss, rtt := 1.0, cfg.NICSigma, 0.0, 0.0
		if cfg.Env != nil {
			if cfg.Env.Capacity != nil {
				capMul = cfg.Env.Capacity(t)
				if capMul < 0 || math.IsNaN(capMul) {
					capMul = 0
				}
			}
			if cfg.Env.ExtraSigma != nil {
				if es := cfg.Env.ExtraSigma(t); es > 0 {
					sigma += es
				}
			}
			if cfg.Env.Loss != nil {
				loss = cfg.Env.Loss(t)
			}
			if cfg.Env.RTTSeconds != nil {
				rtt = cfg.Env.RTTSeconds(t)
			}
		}
		nicCap := cfg.NICMBps * capMul * nicRNG.NoiseFactor(sigma)

		for i, s := range states {
			kind := s.cfg.Kind(s.sentApp)
			p := cfg.Profiles[s.level]
			r := p.Ratio[kind]
			// Sender pipeline rate: compression plus TCP-stack cost on
			// the stream's core share (RunTransfer's cpu stage).
			comp := p.CompMBps[kind] * s.cfg.CPUFactor * s.rng.NoiseFactor(cfg.CPUSigma)
			app := 1 / (1/comp + r/wireCPUMBps)
			// Offered-load cap: a request-driven stream sends no faster
			// than its demand curve, however fast its pipeline is.
			if s.cfg.DemandMBps != nil {
				if dm := s.cfg.DemandMBps(t); !(dm > 0) {
					app = 0
				} else if dm < app {
					app = dm
				}
			}
			// Loss cap: on a lossy link each stream's wire rate is bounded
			// by the Mathis throughput of its effective RTT, which includes
			// the level's per-block compression latency.
			if loss > 0 {
				if capWire := lossWireCapMBps(loss, rtt, comp); app*r > capWire {
					app = capWire / r
				}
			}
			cpuApp[i] = app
			ratio[i] = r
			demand[i] = app * r
			weight[i] = s.cfg.Weight
		}

		waterFill(nicCap, demand, weight, alloc)

		var aggApp, aggWire float64
		var winAppBytes, winWireBytes int64
		for i, s := range states {
			achievedWire := alloc[i]
			achievedApp := achievedWire / ratio[i]
			if achievedApp > cpuApp[i] {
				achievedApp = cpuApp[i]
			}
			appBytes := int64(achievedApp * 1e6 * cfg.WindowSeconds)
			wireBytes := int64(float64(appBytes) * ratio[i])
			s.sentApp += appBytes
			s.appBytes += appBytes
			s.wireBytes += wireBytes
			winAppBytes += appBytes
			winWireBytes += wireBytes
			aggApp += achievedApp
			aggWire += achievedWire

			win := core.Window{
				Rate:     achievedApp * 1e6, // bytes/second, as the stream layer measures
				AppBytes: appBytes, WireBytes: wireBytes,
			}
			next, err := observe(s.cfg.Scheme, len(cfg.Profiles), win, s.level, &s.switches)
			if err != nil {
				return res, fmt.Errorf("cloudsim: stream %d: %w", i, err)
			}
			if next != s.level {
				dir := 1
				if next < s.level {
					dir = -1
				}
				if s.lastSwitchDir != 0 && dir == -s.lastSwitchDir && w-s.lastSwitchWin <= coord.FlapWindow {
					s.flaps++
				}
				s.lastSwitchWin = w
				s.lastSwitchDir = dir
				s.level = next
			}
		}
		if cfg.Trace != nil {
			cfg.Trace(FleetWindowSample{
				Window: w, Time: t,
				AppMBps: aggApp, WireMBps: aggWire,
				AppBytes: winAppBytes, WireBytes: winWireBytes,
			})
		}
	}

	res.Windows = cfg.Windows
	res.PerStream = make([]FleetStreamResult, n)
	for i, s := range states {
		res.PerStream[i] = FleetStreamResult{
			AppBytes:   s.appBytes,
			WireBytes:  s.wireBytes,
			Switches:   s.switches,
			Flaps:      s.flaps,
			FinalLevel: s.level,
			Tenant:     s.cfg.Tenant,
		}
		res.AppBytes += s.appBytes
		res.WireBytes += s.wireBytes
		res.Switches += s.switches
		res.Flaps += s.flaps
	}
	return res, nil
}

// waterFill allocates cap across demands by weighted max-min fairness and
// writes the result into alloc. Streams demanding less than their weighted
// share keep their demand; the surplus is redistributed among the rest
// until every stream is either satisfied or pinned at its share.
func waterFill(cap float64, demand, weight, alloc []float64) {
	n := len(demand)
	satisfied := make([]bool, n)
	for i := range alloc {
		alloc[i] = 0
	}
	for {
		var sumW float64
		for i := 0; i < n; i++ {
			if !satisfied[i] && demand[i] > 0 {
				sumW += weight[i]
			}
		}
		if sumW == 0 {
			return
		}
		remaining := cap
		for i := 0; i < n; i++ {
			if satisfied[i] {
				remaining -= alloc[i]
			}
		}
		if remaining <= 0 {
			return
		}
		progress := false
		for i := 0; i < n; i++ {
			if satisfied[i] || demand[i] <= 0 {
				continue
			}
			if share := remaining * weight[i] / sumW; demand[i] <= share {
				alloc[i] = demand[i]
				satisfied[i] = true
				progress = true
			}
		}
		if progress {
			continue
		}
		// Everyone left demands more than their share: pin them there.
		for i := 0; i < n; i++ {
			if !satisfied[i] && demand[i] > 0 {
				alloc[i] = remaining * weight[i] / sumW
			}
		}
		return
	}
}
