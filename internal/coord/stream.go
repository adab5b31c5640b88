package coord

import (
	"sync"

	"adaptio/internal/core"
)

// Stream is the per-stream handle returned by Coordinator.Register. It is a
// core.WindowPolicy, so it plugs into stream.WriterConfig.Decider and the
// simulators like any other policy.
//
// While attached, every observation is an allocation round: the coordinator
// recomputes the stream's weighted-fair share, refreshes the stream's
// per-level goodput estimates from its drift-corrected priors, and moves the
// level at most one step toward the estimated optimum, damped by hysteresis.
// After Detach the handle holds its last level.
type Stream struct {
	coord  *Coordinator
	weight float64
	tenant string

	mu       sync.Mutex
	detached bool
	level    int
	windows  int // observation windows seen while attached

	// Multiplicative drift corrections to the priors, learned from this
	// stream's own observed windows (EWMA, gain driftGain).
	ratioDrift float64 // observed ratio / ratioPrior[level]
	compDrift  float64 // observed app rate / compBytesPerSec[level], CPU-bound windows only

	// Hysteresis and flap bookkeeping; the moves and flaps themselves are
	// counted by coord.level.switches and coord.level.flaps.
	streak        int // consecutive windows the same better target won
	streakTarget  int
	lastSwitchWin int // window index of the last level move (-1 = never)
	lastSwitchDir int // +1 heavier, -1 lighter, 0 none yet
}

// Level returns the stream's current compression level.
func (s *Stream) Level() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.level
}

// Detach removes the stream from the coordinated fleet; from then on the
// handle holds its last level. Idempotent.
func (s *Stream) Detach() {
	s.mu.Lock()
	if s.detached {
		s.mu.Unlock()
		return
	}
	s.detached = true
	s.mu.Unlock()
	s.coord.detach(s)
}

// Observe implements core.Policy: a window of which only the rate is known,
// so the ratio drift stays at its last value.
func (s *Stream) Observe(rate float64) int {
	return s.ObserveWindow(core.Window{Rate: rate})
}

// ObserveWindow implements core.WindowPolicy. It reports one completed
// window — the achieved application data rate plus, where the driver knows
// them, the window's application and wire byte counts — and returns the
// level the stream must use for the next window.
func (s *Stream) ObserveWindow(w core.Window) int {
	rate, appBytes, wireBytes := w.Rate, w.AppBytes, w.WireBytes
	s.mu.Lock()
	cur := s.level
	if s.detached {
		s.mu.Unlock()
		return cur
	}
	s.windows++

	// Learn this stream's deviation from the priors. Ratio drift needs
	// both byte counters; compression-speed drift only updates when the
	// stream was plausibly CPU-bound (wire demand comfortably below its
	// share), otherwise the NIC — not the compressor — set the rate.
	s.coord.mu.Lock()
	share := s.coord.shareLocked(s.weight)
	s.coord.mu.Unlock()
	if appBytes > 0 && wireBytes > 0 {
		obsRatio := float64(wireBytes) / float64(appBytes)
		s.ratioDrift = ewma(s.ratioDrift, obsRatio/ratioPrior[cur], driftGain)
	}
	if rate > 0 {
		wireRate := rate * s.estRatio(cur)
		if wireRate < 0.8*share {
			s.compDrift = ewma(s.compDrift, rate/compBytesPerSec[cur], driftGain)
		}
	}

	s.m().goodputBytes.Add(appBytes)

	// Pick the level with the best estimated goodput under the current
	// share; ties break toward the lighter level (cheaper CPU). The
	// winner only becomes a move target if it beats the *current* level's
	// estimate by the improvement margin — inside the margin is noise.
	best, target := 0.0, 0
	for l := range ratioPrior {
		if e := s.estGoodput(l, share); e > best {
			best, target = e, l
		}
	}
	if target != cur && best <= s.estGoodput(cur, share)*(1+ImprovementMargin) {
		target = cur
	}

	if target == cur {
		s.streak = 0
		s.mu.Unlock()
		return cur
	}
	if target != s.streakTarget {
		s.streakTarget = target
		s.streak = 1
		s.mu.Unlock()
		return cur
	}
	s.streak++
	dwellOK := s.lastSwitchWin < 0 || s.windows-s.lastSwitchWin >= HysteresisWindows
	if s.streak < HysteresisWindows || !dwellOK {
		s.mu.Unlock()
		return cur
	}

	// Move one step toward the target.
	dir := 1
	if target < cur {
		dir = -1
	}
	next := cur + dir
	flap := s.lastSwitchDir != 0 && dir == -s.lastSwitchDir &&
		s.lastSwitchWin >= 0 && s.windows-s.lastSwitchWin <= FlapWindow
	s.level = next
	s.lastSwitchWin = s.windows
	s.lastSwitchDir = dir
	s.streak = 0
	s.mu.Unlock()

	s.m().switches.Inc()
	if flap {
		s.m().flaps.Inc()
	}
	return next
}

func (s *Stream) m() *coordMetrics { return s.coord.m }

// estRatio is the drift-corrected expected wire/app ratio at level l,
// clamped to a sane band; callers hold s.mu.
func (s *Stream) estRatio(l int) float64 {
	if l == 0 {
		return 1 // level 0 is identity framing; drift never applies
	}
	return clampF(ratioPrior[l]*s.ratioDrift, 0.01, 1.2)
}

// estGoodput is E(l) = min(share / ratio(l), comp(l)): the application-byte
// rate level l would sustain given the stream's wire share and its
// drift-corrected compressor speed. Callers hold s.mu.
func (s *Stream) estGoodput(l int, share float64) float64 {
	netBound := share / s.estRatio(l)
	cpuBound := compBytesPerSec[l] * clampF(s.compDrift, 0.05, 20)
	if cpuBound < netBound {
		return cpuBound
	}
	return netBound
}

func ewma(prev, sample, gain float64) float64 {
	return prev*(1-gain) + sample*gain
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
