package cloudsim

import (
	"errors"
	"fmt"
	"math"

	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/xrand"
)

// KindSchedule maps a byte offset of the application stream to a corpus
// kind; it expresses workloads whose compressibility changes over time
// (Figure 6 alternates HIGH and LOW every 10 GB).
type KindSchedule func(offset int64) corpus.Kind

// ConstantKind returns a schedule that always yields k.
func ConstantKind(k corpus.Kind) KindSchedule {
	return func(int64) corpus.Kind { return k }
}

// AlternatingKinds returns a schedule cycling through kinds every `every`
// bytes.
func AlternatingKinds(every int64, kinds ...corpus.Kind) KindSchedule {
	if every <= 0 || len(kinds) == 0 {
		panic("cloudsim: invalid alternating schedule")
	}
	return func(off int64) corpus.Kind {
		return kinds[(off/every)%int64(len(kinds))]
	}
}

// TransferConfig describes one sender->receiver bulk transfer experiment
// (the Section IV sample job: a Nephele sender task streaming a test file
// over a TCP network channel to a receiver task on another VM).
type TransferConfig struct {
	// Platform of both VMs. The evaluation used KVM paravirt.
	Platform Platform
	// Kind schedules the data compressibility by stream offset.
	Kind KindSchedule
	// TotalBytes is the application data volume (paper: 50 GB).
	TotalBytes int64
	// Background is the number of co-located concurrent TCP connections.
	Background int
	// WindowSeconds is the decision interval t (paper: 2 s).
	WindowSeconds float64
	// Scheme picks compression levels: the paper's decision model, a
	// core.Static level, a related-work baseline — any core.Policy. Must
	// select levels within len(Profiles).
	Scheme core.Policy
	// Profiles is the codec profile ladder (index = level).
	Profiles []CodecProfile
	// Seed drives all stochastic components.
	Seed uint64
	// Trace, if non-nil, receives one sample per decision window.
	Trace func(WindowSample)
	// MaxSimSeconds aborts runaway simulations; zero means 24 h.
	MaxSimSeconds float64
}

// WindowSample is one decision window of a simulated transfer; it carries
// everything Figures 4–6 plot: time, throughput at both layers, the selected
// level and the sender's CPU utilization as displayed inside the VM.
type WindowSample struct {
	// Time is the window's end, in seconds since transfer start.
	Time float64
	// Level active during the window.
	Level int
	// AppMBps is the application-layer throughput (pre-compression).
	AppMBps float64
	// WireMBps is the network-layer throughput (post-compression).
	WireMBps float64
	// GuestCPU is the CPU utilization displayed inside the sending VM.
	GuestCPU CPUBreakdown
	// Kind is the data compressibility during this window.
	Kind corpus.Kind
}

// TransferResult summarizes a completed transfer.
type TransferResult struct {
	// CompletionSeconds is the job completion time (Table II's metric).
	CompletionSeconds float64
	// AppBytes and WireBytes total the two layers.
	AppBytes  int64
	WireBytes int64
	// Windows is the number of decision windows executed.
	Windows int
	// LevelSeconds accumulates simulated time spent per level.
	LevelSeconds []float64
	// LevelSwitches counts level changes.
	LevelSwitches int
}

// MeanLevel returns the time-weighted mean compression level.
func (r TransferResult) MeanLevel() float64 {
	var num, den float64
	for l, s := range r.LevelSeconds {
		num += float64(l) * s
		den += s
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// RunTransfer simulates one bulk transfer and returns its completion time.
//
// # Pipeline model
//
// Within one decision window the sender VM (1 vCPU, as in the appendix)
// runs compression and the network stack on the same core, while the NIC
// transfer overlaps with computation through kernel buffering. The steady
// state application rate is therefore the inverse of the slowest stage:
//
//	cpuSecPerByte  = (1/comp(l,k) + ratio(l,k)/wireCPUMBps) / CPUShare(bg)
//	netSecPerByte  = ratio(l,k) / (net.appMBps * NetShare(bg) * noise)
//	recvSecPerByte = 1/decomp(l,k) + ratio(l,k)/wireCPUMBps
//	rate           = 1 / max(cpuSecPerByte, netSecPerByte, recvSecPerByte)
//
// wireCPUMBps (150 MB/s) is the VM's TCP-stack processing capacity per wire
// byte, calibrated with the level speeds in ReferenceProfiles so the model
// inverts Table II (see EXPERIMENTS.md). The network's flow control
// backpressures the whole pipeline, which is why the receiver's
// decompression appears in the max — exactly the effect the paper describes
// ("the application data rate also includes the decompression time at the
// receiver because of the network's flow control mechanisms").
func RunTransfer(cfg TransferConfig) (TransferResult, error) {
	net, ok := netTable[cfg.Platform]
	if !ok {
		return TransferResult{}, fmt.Errorf("cloudsim: unknown platform %v", cfg.Platform)
	}
	rng := xrand.New(cfg.Seed ^ 0xC0FFEE)
	st := &netStage{
		cfg:   cfg,
		net:   net,
		rng:   rng,
		flake: newFlakeProcess(net, rng.Fork()),
		slow:  newSlowNoise(cfg.Background, rng.Fork()),
	}
	return runWindows(cfg, 24*3600, rng, st)
}

// stage is the per-window stage model the solo window loop is parameterised
// by: the network pipeline above, or the virtual disk of RunFileTransfer.
// Both draw their noise from the run's one seeded generator.
type stage interface {
	// window draws the conditions of the window starting at now and returns
	// what the pipeline sustains at profile p on data of the given kind.
	window(now float64, p CodecProfile, kind corpus.Kind) stageWindow
	// advance accounts a finished window of dt seconds that put wireBytes
	// on the medium.
	advance(wireBytes, dt float64)
}

// stageWindow is one window's verdict from the stage model.
type stageWindow struct {
	// appMBps is the sustainable application data rate.
	appMBps float64
	// cpuSecPerMB is the sender's true CPU cost and compFrac the share of
	// it spent compressing; together they give the displayed guest CPU.
	cpuSecPerMB, compFrac float64
	// guest, if non-nil, samples the metrics displayed inside the sending
	// VM for the finished window (achieved rate appMBps over dt seconds).
	guest func(appMBps, dt float64) core.GuestMetrics
}

// netStage is RunTransfer's pipeline model.
type netStage struct {
	cfg   TransferConfig
	net   netParams
	rng   *xrand.RNG
	flake *flakeProcess
	slow  *slowNoise
}

func (s *netStage) window(now float64, p CodecProfile, kind corpus.Kind) stageWindow {
	bg, ratio := s.cfg.Background, p.Ratio[kind]
	// Stage costs in seconds per application byte (MB units cancel).
	// The small multiplicative noise on the CPU stage reflects
	// scheduling jitter; it gives CPU-bound configurations the
	// nonzero run-to-run deviations Table II reports.
	compSec := 1 / p.CompMBps[kind]
	ioSec := ratio / wireCPUMBps
	cpu := (compSec + ioSec) / CPUShare(bg) * s.rng.NoiseFactor(0.012)
	netRate := s.net.appMBps * NetShare(bg) * thinFlowShare(bg, ratio) *
		s.rng.NoiseFactor(s.net.sigma) * s.slow.factor(now) * s.flake.factor(now)
	if netRate < minNetMBps {
		netRate = minNetMBps
	}
	netSec := ratio / netRate
	recv := 1/p.DecompMBps[kind] + ratio/wireCPUMBps
	compFrac := compSec / (compSec + ioSec)
	return stageWindow{
		appMBps:     1 / math.Max(cpu, math.Max(netSec, recv)),
		cpuSecPerMB: cpu,
		compFrac:    compFrac,
		guest: func(appMBps, dt float64) core.GuestMetrics {
			guestCPU := senderGuestCPU(s.cfg.Platform, cpu, compFrac, appMBps, s.rng)
			idle := 100 - guestCPU.Total()
			if idle < 0 {
				idle = 0
			}
			return core.GuestMetrics{
				DisplayedIdlePct:       idle,
				DisplayedBandwidthMBps: netRate,
				CompressorMBps:         (1 / cpu) * s.rng.NoiseFactor(0.02),
				NetDrainMBps:           netRate,
				WindowSeconds:          dt,
			}
		},
	}
}

func (s *netStage) advance(float64, float64) {}

// observe feeds a finished window to a stream's policy through the one
// dispatch (core.ObserveWindow) and returns the level for the next window,
// counting a switch when it differs from cur. A level outside the profile
// ladder is an error: the simulator reports a misbehaving policy instead of
// papering over it.
func observe(p core.Policy, levels int, w core.Window, cur int, switches *int) (int, error) {
	next, err := core.ObserveWindow(p, levels, w)
	if err != nil {
		return cur, err
	}
	if next != cur {
		*switches++
	}
	return next, nil
}

// runWindows is the solo window-clock loop behind RunTransfer and
// RunFileTransfer: it steps cfg.TotalBytes through decision windows at the
// rate st sustains, clips the last window to the remaining bytes, and feeds
// every finished window to the policy. The order of the draws from rng —
// the stage's, then the policy's guest reading if it takes one, then the
// trace's — is pinned by testdata/seed_results.golden.
func runWindows(cfg TransferConfig, defaultMaxSimSeconds float64, rng *xrand.RNG, st stage) (TransferResult, error) {
	var res TransferResult
	if cfg.TotalBytes <= 0 {
		return res, errors.New("cloudsim: TotalBytes must be positive")
	}
	if cfg.Scheme == nil {
		return res, errors.New("cloudsim: nil scheme")
	}
	if cfg.Kind == nil {
		return res, errors.New("cloudsim: nil kind schedule")
	}
	if err := ValidateLadder(cfg.Profiles); err != nil {
		return res, err
	}
	if cfg.WindowSeconds <= 0 {
		cfg.WindowSeconds = core.DefaultWindowSeconds
	}
	if cfg.MaxSimSeconds <= 0 {
		cfg.MaxSimSeconds = defaultMaxSimSeconds
	}

	res.LevelSeconds = make([]float64, len(cfg.Profiles))
	level := cfg.Scheme.Level()
	if level < 0 || level >= len(cfg.Profiles) {
		return res, fmt.Errorf("cloudsim: scheme starts at invalid level %d", level)
	}

	var sent int64
	now := 0.0
	for sent < cfg.TotalBytes {
		if now > cfg.MaxSimSeconds {
			return res, fmt.Errorf("cloudsim: transfer exceeded %v simulated seconds (sent %d of %d)",
				cfg.MaxSimSeconds, sent, cfg.TotalBytes)
		}
		kind := cfg.Kind(sent)
		ratio := cfg.Profiles[level].Ratio[kind]
		sw := st.window(now, cfg.Profiles[level], kind)

		// Advance one window (or less if the transfer finishes inside it).
		windowBytes := int64(sw.appMBps * 1e6 * cfg.WindowSeconds)
		if windowBytes < 1 {
			windowBytes = 1
		}
		dt := cfg.WindowSeconds
		if sent+windowBytes >= cfg.TotalBytes {
			remaining := cfg.TotalBytes - sent
			dt = float64(remaining) / (sw.appMBps * 1e6)
			windowBytes = remaining
		}
		wireBytes := float64(windowBytes) * ratio
		st.advance(wireBytes, dt)
		sent += windowBytes
		now += dt
		res.AppBytes += windowBytes
		res.WireBytes += int64(wireBytes)
		res.LevelSeconds[level] += dt
		res.Windows++

		// Feed the window (rate in bytes/second, as the stream layer
		// measures it) to the decision scheme.
		appMBps := float64(windowBytes) / 1e6 / dt
		win := core.Window{Rate: appMBps * 1e6, AppBytes: windowBytes, WireBytes: int64(wireBytes)}
		if sw.guest != nil {
			win.Guest = func() core.GuestMetrics { return sw.guest(appMBps, dt) }
		}
		next, err := observe(cfg.Scheme, len(cfg.Profiles), win, level, &res.LevelSwitches)
		if err != nil {
			return res, fmt.Errorf("cloudsim: %w", err)
		}
		if cfg.Trace != nil {
			cfg.Trace(WindowSample{
				Time:     now,
				Level:    level,
				AppMBps:  appMBps,
				WireMBps: appMBps * ratio,
				GuestCPU: senderGuestCPU(cfg.Platform, sw.cpuSecPerMB, sw.compFrac, appMBps, rng),
				Kind:     kind,
			})
		}
		level = next
	}
	res.CompletionSeconds = now
	return res, nil
}

// wireCPUMBps is the sender VM's TCP-stack capacity: how many MB of wire
// bytes one vCPU can push per second if it did nothing else. Calibrated
// jointly with ReferenceProfiles against Table II.
const wireCPUMBps = 150

// minNetMBps floors the fluctuating network rate; EC2's collapses go "to
// zero" at millisecond scale but a 2 s window always moves some bytes.
const minNetMBps = 0.5

// thinFlowShare models a second-order TCP effect visible in Table II: under
// contention a *compressed* flow demands fewer wire bytes, holds a smaller
// congestion window and therefore recovers more slowly against saturating
// background flows, losing a little more than its volume-proportional share.
// The penalty scales with how thin the flow is (1-ratio) and vanishes
// without background traffic. Calibrated so LIGHT and MEDIUM on MODERATE
// data approach the near-tie the paper reports at three background
// connections (1027 s vs 953 s).
func thinFlowShare(bg int, ratio float64) float64 {
	if bg <= 0 {
		return 1
	}
	if ratio > 1 {
		ratio = 1
	}
	return 1 - 0.25*(1-ratio)
}

// slowNoise is a low-frequency contention process: co-located VM load
// varies on a tens-of-seconds timescale, which is what gives the paper's
// completion times their run-to-run standard deviations. One multiplicative
// factor is drawn per epoch; its amplitude grows with the number of
// background connections.
type slowNoise struct {
	rng      *xrand.RNG
	sigma    float64
	epochSec float64
	epoch    int
	value    float64
}

func newSlowNoise(bg int, rng *xrand.RNG) *slowNoise {
	return &slowNoise{rng: rng, sigma: 0.03 * float64(bg), epochSec: 40, epoch: -1, value: 1}
}

func (s *slowNoise) factor(now float64) float64 {
	if s.sigma == 0 {
		return 1
	}
	e := int(now / s.epochSec)
	if e != s.epoch {
		s.epoch = e
		s.value = s.rng.NoiseFactor(s.sigma)
	}
	return s.value
}

// senderGuestCPU converts the window's CPU cost into the utilization split
// displayed inside the guest, applying the platform's accounting distortion
// (the guest systematically under-reports I/O processing, Section II-A).
// compFrac is the fraction of the true cost spent in user-mode compression,
// which the guest accounts correctly; the I/O remainder is shown shrunk by
// the platform's guest/host visibility ratio.
func senderGuestCPU(p Platform, cpuSecPerMB, compFrac, appMBps float64, rng *xrand.RNG) CPUBreakdown {
	util := cpuSecPerMB * appMBps * 100 // percent of one core, true cost
	if util > 100 {
		util = 100
	}
	guest, host, _ := Accounting(p, NetSend)
	hostTotal := host.Total()
	visibility := 1.0
	if hostTotal > 0 && p != Native {
		visibility = guest.Total() / hostTotal
	}
	usr := util * compFrac
	ioPart := util - usr
	visIO := ioPart * visibility
	scale := func(f float64) float64 { return f * (1 + 0.05*rng.Norm()) }
	gt := guest.Total()
	if gt == 0 {
		gt = 1
	}
	return CPUBreakdown{
		USR:   scale(usr + visIO*guest.USR/gt),
		SYS:   scale(visIO * guest.SYS / gt),
		HIRQ:  scale(visIO * guest.HIRQ / gt),
		SIRQ:  scale(visIO * guest.SIRQ / gt),
		STEAL: scale(visIO * guest.STEAL / gt),
	}
}

// flakeProcess models EC2's regime-switching throughput: occasional windows
// where the achievable rate collapses, as reported by Wang & Ng and
// reproduced in Section II-B.
type flakeProcess struct {
	enabled bool
	rng     *xrand.RNG
	lowTil  float64
}

func newFlakeProcess(net netParams, rng *xrand.RNG) *flakeProcess {
	return &flakeProcess{enabled: net.flaky, rng: rng}
}

func (f *flakeProcess) factor(now float64) float64 {
	if !f.enabled {
		return 1
	}
	if now < f.lowTil {
		return 0.05 + 0.1*f.rng.Float64()
	}
	// ~8% of windows enter a collapse lasting up to ~3 s.
	if f.rng.Float64() < 0.08 {
		f.lowTil = now + 0.5 + 2.5*f.rng.Float64()
		return 0.05 + 0.1*f.rng.Float64()
	}
	return 1
}
