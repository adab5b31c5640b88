// Package baseline implements the decision models of the related adaptive
// compression schemes the paper discusses in Section V, in the simplified
// form needed to quantify its central argument: schemes that decide from
// OS-displayed system metrics (CPU utilization, probed bandwidth) or from
// offline training inherit the guest-metric distortions of Section II and
// choose unreasonable compression levels inside virtual machines, while the
// paper's rate-based model (internal/core) does not.
//
// Four families are modeled:
//
//   - NCTCSys (Motgi & Mukherjee 2001): sensor thresholds on network
//     bandwidth and server load choose the algorithm.
//   - Krintz & Sucu's ACE (2006): an offline-trained model of per-level
//     compression speed and ratio, evaluated against displayed CPU idle
//     time and probed bandwidth.
//   - Jeannot, Knutsson & Björkman's AdOC (2002): a FIFO queue between the
//     compression and send threads; the level follows the queue trend. The
//     scheme assumes higher levels always compress better — the flaw the
//     paper points out for incompressible data.
//   - Wiseman, Schwan & Widener (2004): a short sampling phase measures
//     each level once, then hard-coded parameters fix the choice.
//
// All types implement core.Policy — the metric-driven three as
// core.WindowPolicy, reading the window's guest-displayed metrics — so they
// run in the identical transfer engine as the paper's DYNAMIC scheme for
// the A4 ablation (DESIGN.md). A window that carries no guest metrics (a
// rate-only Observe, the file and fleet simulators) leaves them where they
// are: their sensors are the only thing they decide from.
package baseline

import (
	"fmt"

	"adaptio/internal/core"
)

// Training holds what an offline calibration phase on a verifiably unloaded
// machine would have measured: per-level compression speed (MB/s of
// application data) and compression ratio on the training data. The paper's
// point is that in a cloud this phase (a) costs provisioned time on every
// new VM and (b) measures a machine whose load it cannot verify.
type Training struct {
	CompMBps []float64
	Ratio    []float64
}

// Validate checks the training tables are parallel and plausible.
func (t Training) Validate() error {
	if len(t.CompMBps) == 0 || len(t.CompMBps) != len(t.Ratio) {
		return fmt.Errorf("baseline: training tables empty or mismatched (%d vs %d)",
			len(t.CompMBps), len(t.Ratio))
	}
	for i := range t.CompMBps {
		if t.CompMBps[i] <= 0 || t.Ratio[i] <= 0 {
			return fmt.Errorf("baseline: non-positive training entry at level %d", i)
		}
	}
	return nil
}

// Levels returns the number of levels covered by the training.
func (t Training) Levels() int { return len(t.CompMBps) }

// DefaultTraining returns tables as measured by an offline phase on the
// paper's unloaded hardware with moderately compressible training data
// (matching the ReferenceProfiles MODERATE column).
func DefaultTraining() Training {
	return Training{
		CompMBps: []float64{5000, 104, 71, 8.9},
		Ratio:    []float64{1.0, 0.45, 0.40, 0.33},
	}
}

// ---------- NCTCSys ----------

// NCTCSys chooses the compression level from sensor modules reporting
// network bandwidth and server load, with fixed thresholds (network
// conscious text compression, Motgi & Mukherjee).
type NCTCSys struct {
	level    int
	maxLevel int

	// Bandwidth thresholds in wire MB/s, descending.
	BWLight  float64 // below: at least LIGHT
	BWMedium float64 // below: at least MEDIUM
	BWHeavy  float64 // below: HEAVY
	// MinIdlePct backs compression off when the displayed server load is
	// high (i.e. displayed idle is low).
	MinIdlePct float64
}

// NewNCTCSys returns the scheme with thresholds scaled to gigabit links.
func NewNCTCSys(levels int) *NCTCSys {
	return &NCTCSys{
		maxLevel:   levels - 1,
		BWLight:    60,
		BWMedium:   20,
		BWHeavy:    3,
		MinIdlePct: 30,
	}
}

// Level implements core.Policy.
func (n *NCTCSys) Level() int { return n.level }

// Observe implements core.Policy.
func (n *NCTCSys) Observe(rate float64) int { return n.ObserveWindow(core.Window{Rate: rate}) }

// ObserveWindow implements core.WindowPolicy. The application data rate is
// ignored: NCTCSys decides from its sensors only.
func (n *NCTCSys) ObserveWindow(w core.Window) int {
	if w.Guest == nil {
		return n.level
	}
	m := w.Guest()
	bw, idle := m.DisplayedBandwidthMBps, m.DisplayedIdlePct
	lvl := 0
	switch {
	case bw < n.BWHeavy:
		lvl = 3
	case bw < n.BWMedium:
		lvl = 2
	case bw < n.BWLight:
		lvl = 1
	}
	if idle < n.MinIdlePct && lvl > 0 {
		lvl-- // server loaded: back off one level
	}
	if lvl > n.maxLevel {
		lvl = n.maxLevel
	}
	n.level = lvl
	return n.level
}

// ---------- Krintz & Sucu (ACE) ----------

// KrintzSucu estimates, for every level, the end-to-end throughput from its
// offline-trained speed/ratio tables combined with the *displayed* CPU idle
// fraction and probed bandwidth, then picks the argmax. Inside a VM the
// displayed idle stays near 100% under I/O load (Section II-A), so the
// scheme systematically overestimates the CPU available for compression and
// selects levels that are far too heavy.
type KrintzSucu struct {
	training Training
	level    int
}

// NewKrintzSucu builds the scheme from an offline training run.
func NewKrintzSucu(t Training) (*KrintzSucu, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &KrintzSucu{training: t}, nil
}

// Level implements core.Policy.
func (k *KrintzSucu) Level() int { return k.level }

// Observe implements core.Policy.
func (k *KrintzSucu) Observe(rate float64) int { return k.ObserveWindow(core.Window{Rate: rate}) }

// ObserveWindow implements core.WindowPolicy.
func (k *KrintzSucu) ObserveWindow(w core.Window) int {
	if w.Guest == nil {
		return k.level
	}
	m := w.Guest()
	idleFrac, bw := m.DisplayedIdlePct/100, m.DisplayedBandwidthMBps
	best, bestRate := 0, 0.0
	for l := 0; l < k.training.Levels(); l++ {
		// Estimated pipeline rate: compression limited by the CPU the
		// guest *believes* is free; network carries ratio-scaled bytes.
		comp := k.training.CompMBps[l] * idleFrac
		net := bw / k.training.Ratio[l]
		rate := comp
		if net < rate {
			rate = net
		}
		if rate > bestRate {
			best, bestRate = l, rate
		}
	}
	k.level = best
	return k.level
}

// ---------- Jeannot et al. (AdOC) ----------

// Jeannot follows the fill trend of the FIFO queue between the compression
// thread and the send thread: a growing queue means the network is the
// bottleneck, so the level is raised; a shrinking queue means compression
// is the bottleneck, so it is lowered. The queue is reconstructed from the
// engine's compressor/drain rates using the scheme's *assumed* (trained)
// ratios — embodying the assumption, criticized by the paper, that higher
// levels always shrink the data further.
type Jeannot struct {
	training Training
	level    int

	queueMB   float64
	prevQueue float64
	// QueueCapMB bounds the modeled queue.
	QueueCapMB float64
	// TrendMB is the hysteresis: the queue must move by this much per
	// window before the level changes.
	TrendMB float64
}

// NewJeannot builds the queue-trend scheme.
func NewJeannot(t Training) (*Jeannot, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &Jeannot{training: t, QueueCapMB: 64, TrendMB: 1}, nil
}

// Level implements core.Policy.
func (j *Jeannot) Level() int { return j.level }

// Observe implements core.Policy.
func (j *Jeannot) Observe(rate float64) int { return j.ObserveWindow(core.Window{Rate: rate}) }

// ObserveWindow implements core.WindowPolicy.
func (j *Jeannot) ObserveWindow(w core.Window) int {
	if w.Guest == nil {
		return j.level
	}
	m := w.Guest()
	produceMB := m.CompressorMBps * j.training.Ratio[j.level] * m.WindowSeconds // wire MB into the queue
	drainMB := m.NetDrainMBps * m.WindowSeconds                                 // wire MB the network took out
	j.prevQueue = j.queueMB
	j.queueMB += produceMB - drainMB
	if j.queueMB < 0 {
		j.queueMB = 0
	}
	if j.queueMB > j.QueueCapMB {
		j.queueMB = j.QueueCapMB
	}
	switch {
	case j.queueMB > j.prevQueue+j.TrendMB && j.level < j.training.Levels()-1:
		j.level++ // queue filling: network-bound, compress harder
	case j.queueMB < j.prevQueue-j.TrendMB && j.level > 0:
		j.level-- // queue draining: CPU-bound, compress less
	}
	return j.level
}

// ---------- Wiseman et al. ----------

// Wiseman runs a short sampling phase — one window per level — and then
// locks in the level with the best observed application rate. The original
// system's hard-coded parameters "need a short sampling phase with unloaded
// I/O and CPU"; because the phase never repeats, the choice goes stale the
// moment contention or data compressibility changes.
type Wiseman struct {
	levels  int
	level   int
	sampled []float64
	phase   int // next level to sample; == levels when locked
}

// NewWiseman builds the sample-once scheme.
func NewWiseman(levels int) (*Wiseman, error) {
	if levels < 1 {
		return nil, fmt.Errorf("baseline: need at least 1 level, got %d", levels)
	}
	return &Wiseman{levels: levels, sampled: make([]float64, levels)}, nil
}

// Level implements core.Policy.
func (w *Wiseman) Level() int { return w.level }

// Observe implements core.Policy.
func (w *Wiseman) Observe(rate float64) int {
	if w.phase < w.levels {
		// Record the rate observed at the level just run and advance
		// the sampling sweep.
		w.sampled[w.level] = rate
		w.phase++
		if w.phase < w.levels {
			w.level = w.phase
			return w.level
		}
		best := 0
		for l, r := range w.sampled {
			if r > w.sampled[best] {
				best = l
			}
		}
		w.level = best
	}
	return w.level
}
