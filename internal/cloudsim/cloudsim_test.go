package cloudsim

import (
	"math"
	"strings"
	"testing"

	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/stats"
)

const fiftyGB = 50e9 // the paper's 50 GB data volume

func run(t *testing.T, kind corpus.Kind, bg int, scheme core.Policy, seed uint64) TransferResult {
	t.Helper()
	res, err := RunTransfer(TransferConfig{
		Platform:   KVMParavirt,
		Kind:       ConstantKind(kind),
		TotalBytes: fiftyGB,
		Background: bg,
		Scheme:     scheme,
		Profiles:   ReferenceProfiles(),
		Seed:       seed,
	})
	if err != nil {
		t.Fatalf("RunTransfer(%v, bg=%d): %v", kind, bg, err)
	}
	return res
}

func dynamic(t *testing.T) core.Policy {
	t.Helper()
	return core.MustNewDecider(core.Config{Levels: 4})
}

func TestPlatformStrings(t *testing.T) {
	if len(Platforms()) != 5 {
		t.Fatal("expected 5 platforms")
	}
	for _, p := range Platforms() {
		if p.String() == "" {
			t.Fatalf("platform %d has empty label", int(p))
		}
	}
	if len(IOOps()) != 4 {
		t.Fatal("expected 4 I/O operations")
	}
}

func TestKindSchedules(t *testing.T) {
	c := ConstantKind(corpus.Low)
	if c(0) != corpus.Low || c(1<<40) != corpus.Low {
		t.Fatal("constant kind not constant")
	}
	a := AlternatingKinds(10, corpus.High, corpus.Low)
	if a(0) != corpus.High || a(9) != corpus.High || a(10) != corpus.Low || a(20) != corpus.High {
		t.Fatal("alternating schedule wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid schedule")
		}
	}()
	AlternatingKinds(0, corpus.High)
}

func TestProfileValidation(t *testing.T) {
	if err := ValidateLadder(nil); err == nil {
		t.Error("empty ladder accepted")
	}
	good := ReferenceProfiles()
	if err := ValidateLadder(good); err != nil {
		t.Errorf("reference profiles rejected: %v", err)
	}
	bad := ReferenceProfiles()
	delete(bad[1].CompMBps, corpus.Low)
	if err := ValidateLadder(bad); err == nil {
		t.Error("incomplete profile accepted")
	}
	bad2 := ReferenceProfiles()
	bad2[0].Ratio[corpus.High] = 0.5
	if err := ValidateLadder(bad2); err == nil {
		t.Error("non-identity level 0 accepted")
	}
}

func TestRunTransferValidation(t *testing.T) {
	base := TransferConfig{
		Platform:   KVMParavirt,
		Kind:       ConstantKind(corpus.High),
		TotalBytes: 1e9,
		Scheme:     core.Static(0),
		Profiles:   ReferenceProfiles(),
	}
	cases := []func(*TransferConfig){
		func(c *TransferConfig) { c.TotalBytes = 0 },
		func(c *TransferConfig) { c.Scheme = nil },
		func(c *TransferConfig) { c.Kind = nil },
		func(c *TransferConfig) { c.Profiles = nil },
		func(c *TransferConfig) { c.Scheme = core.Static(9) },
		func(c *TransferConfig) { c.Platform = Platform(42) },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := RunTransfer(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := RunTransfer(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestTransferDeterministicPerSeed(t *testing.T) {
	a := run(t, corpus.Moderate, 1, core.Static(1), 42)
	b := run(t, corpus.Moderate, 1, core.Static(1), 42)
	if a.CompletionSeconds != b.CompletionSeconds {
		t.Fatalf("same seed diverged: %v vs %v", a.CompletionSeconds, b.CompletionSeconds)
	}
	c := run(t, corpus.Moderate, 1, core.Static(1), 43)
	if a.CompletionSeconds == c.CompletionSeconds {
		t.Fatal("different seeds produced identical noisy results")
	}
}

// TestTableIIZeroConnCalibration pins the simulated completion times for the
// no-contention column of Table II to within 8% of the paper's values —
// this is the calibration anchor of the whole evaluation.
func TestTableIIZeroConnCalibration(t *testing.T) {
	paper := map[corpus.Kind][4]float64{
		corpus.High:     {569, 252, 347, 1881},
		corpus.Moderate: {567, 629, 795, 5760},
		corpus.Low:      {566, 688, 1095, 9011},
	}
	for kind, want := range paper {
		for lvl := 0; lvl < 4; lvl++ {
			got := run(t, kind, 0, core.Static(lvl), 7).CompletionSeconds
			if rel := math.Abs(got-want[lvl]) / want[lvl]; rel > 0.08 {
				t.Errorf("%v level %d: %0.f s vs paper %0.f s (%.0f%% off)",
					kind, lvl, got, want[lvl], rel*100)
			}
		}
	}
}

// TestTableIIShape verifies the qualitative structure of Table II that the
// paper's conclusions rest on.
func TestTableIIShape(t *testing.T) {
	grid := map[corpus.Kind]map[int][4]float64{} // kind -> level -> per-bg times
	for _, kind := range corpus.Kinds() {
		grid[kind] = map[int][4]float64{}
		for lvl := 0; lvl < 4; lvl++ {
			var times [4]float64
			for bg := 0; bg <= 3; bg++ {
				times[bg] = run(t, kind, bg, core.Static(lvl), uint64(17+bg)).CompletionSeconds
			}
			grid[kind][lvl] = times
		}
	}
	// LIGHT is the fastest static level on HIGH data at every contention
	// level (Table II bold values).
	for bg := 0; bg <= 3; bg++ {
		light := grid[corpus.High][1][bg]
		for _, lvl := range []int{0, 2, 3} {
			if grid[corpus.High][lvl][bg] <= light {
				t.Errorf("HIGH bg=%d: level %d (%.0f s) not slower than LIGHT (%.0f s)",
					bg, lvl, grid[corpus.High][lvl][bg], light)
			}
		}
	}
	// NO wins on LOW data without contention.
	if grid[corpus.Low][0][0] >= grid[corpus.Low][1][0] {
		t.Error("LOW bg=0: NO should beat LIGHT")
	}
	// HEAVY is by far the worst everywhere at 1 Gbit/s (factor >= 2.5 vs
	// the best).
	for _, kind := range corpus.Kinds() {
		best := math.Inf(1)
		for lvl := 0; lvl < 3; lvl++ {
			best = math.Min(best, grid[kind][lvl][0])
		}
		if grid[kind][3][0] < 2.5*best {
			t.Errorf("%v: HEAVY (%.0f s) not clearly worst vs best %.0f s", kind, grid[kind][3][0], best)
		}
	}
	// NO-compression times grow monotonically with contention (it is
	// network bound).
	for _, kind := range corpus.Kinds() {
		ts := grid[kind][0]
		for bg := 1; bg <= 3; bg++ {
			if ts[bg] <= ts[bg-1] {
				t.Errorf("%v NO: time did not grow with contention: %v", kind, ts)
			}
		}
	}
	// HEAVY is CPU bound: contention barely moves it (< 15% from bg 0 to 3).
	for _, kind := range corpus.Kinds() {
		ts := grid[kind][3]
		if ts[3] > ts[0]*1.15 {
			t.Errorf("%v HEAVY: should be CPU-bound, got %v -> %v", kind, ts[0], ts[3])
		}
	}
	// The MODERATE near-tie at bg=3: LIGHT and MEDIUM within 15% of each
	// other (the paper reports 1027 vs 953, a crossover within noise).
	l3, m3 := grid[corpus.Moderate][1][3], grid[corpus.Moderate][2][3]
	if gap := math.Abs(l3-m3) / math.Min(l3, m3); gap > 0.15 {
		t.Errorf("MODERATE bg=3: LIGHT %.0f vs MEDIUM %.0f differ by %.0f%%, want near-tie", l3, m3, gap*100)
	}
}

// TestDynamicWithin22Percent pins the paper's headline claim: "our adaptive
// scheme yielded job completion times which were at most 22% worse than the
// fastest completion times with statically set compression levels."
func TestDynamicWithin22Percent(t *testing.T) {
	for _, kind := range corpus.Kinds() {
		for bg := 0; bg <= 3; bg++ {
			best := math.Inf(1)
			for lvl := 0; lvl < 4; lvl++ {
				if ct := run(t, kind, bg, core.Static(lvl), uint64(31+bg)).CompletionSeconds; ct < best {
					best = ct
				}
			}
			dyn := run(t, kind, bg, dynamic(t), uint64(31+bg)).CompletionSeconds
			if dyn > best*1.22 {
				t.Errorf("%v bg=%d: DYNAMIC %.0f s is %.0f%% worse than best static %.0f s",
					kind, bg, dyn, (dyn/best-1)*100, best)
			}
		}
	}
}

// TestDynamicBeatsNoCompressionUpTo4x checks the paper's throughput-gain
// claim ("improved the overall application throughput up to a factor of 4"):
// on highly compressible data under contention, DYNAMIC beats NO by >= 4x.
func TestDynamicBeatsNoCompressionUpTo4x(t *testing.T) {
	no := run(t, corpus.High, 3, core.Static(0), 3).CompletionSeconds
	dyn := run(t, corpus.High, 3, dynamic(t), 3).CompletionSeconds
	if no < 4*dyn {
		t.Fatalf("HIGH bg=3: NO %.0f s vs DYNAMIC %.0f s — gain %.1fx < 4x", no, dyn, no/dyn)
	}
}

// TestDynamicConvergesToLight: on HIGH data with no contention the decider
// must spend most of its time at LIGHT, the level Figure 4 shows it locking
// onto.
func TestDynamicConvergesToLight(t *testing.T) {
	res := run(t, corpus.High, 0, dynamic(t), 11)
	var total float64
	for _, s := range res.LevelSeconds {
		total += s
	}
	if frac := res.LevelSeconds[1] / total; frac < 0.7 {
		t.Fatalf("DYNAMIC spent only %.0f%% of time at LIGHT", frac*100)
	}
	if res.LevelSwitches == 0 {
		t.Fatal("no probing happened at all")
	}
}

func TestMeanLevel(t *testing.T) {
	r := TransferResult{LevelSeconds: []float64{10, 10, 0, 0}}
	if got := r.MeanLevel(); got != 0.5 {
		t.Fatalf("MeanLevel = %v, want 0.5", got)
	}
	var empty TransferResult
	if empty.MeanLevel() != 0 {
		t.Fatal("empty MeanLevel should be 0")
	}
}

func TestTraceSamples(t *testing.T) {
	var samples []WindowSample
	_, err := RunTransfer(TransferConfig{
		Platform:   KVMParavirt,
		Kind:       ConstantKind(corpus.High),
		TotalBytes: 2e9,
		Scheme:     core.MustNewDecider(core.Config{Levels: 4}),
		Profiles:   ReferenceProfiles(),
		Seed:       5,
		Trace:      func(ws WindowSample) { samples = append(samples, ws) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 3 {
		t.Fatalf("too few trace samples: %d", len(samples))
	}
	prev := 0.0
	for i, s := range samples {
		if s.Time <= prev {
			t.Fatalf("sample %d: time not increasing (%v after %v)", i, s.Time, prev)
		}
		prev = s.Time
		if s.AppMBps <= 0 {
			t.Fatalf("sample %d: non-positive app rate", i)
		}
		if s.WireMBps > s.AppMBps*1.01 {
			t.Fatalf("sample %d: wire rate above app rate on compressible data", i)
		}
		if s.Level < 0 || s.Level > 3 {
			t.Fatalf("sample %d: invalid level %d", i, s.Level)
		}
		if s.GuestCPU.Total() < 0 || s.GuestCPU.Total() > 200 {
			t.Fatalf("sample %d: implausible guest CPU %v", i, s.GuestCPU.Total())
		}
	}
}

// TestMaxSimSecondsGuard: 1 TB at static HEAVY on LOW data needs about
// 185 k simulated seconds, past the network stage's 24 h limit.
func TestMaxSimSecondsGuard(t *testing.T) {
	_, err := RunTransfer(TransferConfig{
		Platform:   KVMParavirt,
		Kind:       ConstantKind(corpus.Low),
		TotalBytes: 1e12,
		Scheme:     core.Static(3),
		Profiles:   ReferenceProfiles(),
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded 86400 simulated seconds") {
		t.Fatalf("runaway guard did not trigger: %v", err)
	}
}

// ---------- Figure 1: accounting ----------

func TestAccountingGuestUnderReportsIO(t *testing.T) {
	for _, p := range []Platform{KVMFull, KVMParavirt, XenParavirt} {
		for _, op := range IOOps() {
			guest, host, vis := Accounting(p, op)
			if !vis {
				t.Fatalf("%v should expose host accounting", p)
			}
			if guest.Total() >= host.Total() {
				t.Errorf("%v/%v: guest (%.0f%%) does not under-report vs host (%.0f%%)",
					p, op, guest.Total(), host.Total())
			}
		}
	}
}

func TestAccountingXenFileReadGap(t *testing.T) {
	guest, host, _ := Accounting(XenParavirt, FileRead)
	gap := host.Total() / guest.Total()
	if gap < 10 || gap > 20 {
		t.Fatalf("XEN file-read gap %.1fx outside the paper's ~15x", gap)
	}
}

func TestAccountingKVMParavirtNetSendGap(t *testing.T) {
	guest, host, _ := Accounting(KVMParavirt, NetSend)
	if gap := host.Total() / guest.Total(); gap < 5 {
		t.Fatalf("KVM paravirt net-send gap %.1fx, paper shows a large gap", gap)
	}
}

func TestAccountingEC2HostInvisible(t *testing.T) {
	_, host, vis := Accounting(EC2, NetSend)
	if vis {
		t.Fatal("EC2 host accounting should be unobservable")
	}
	if host.Total() != 0 {
		t.Fatal("EC2 host breakdown should be zero")
	}
	guest, _, _ := Accounting(EC2, NetSend)
	if guest.STEAL < 10 {
		t.Fatal("EC2 m1.small should show significant steal time")
	}
}

func TestAccountingNativeTruthful(t *testing.T) {
	for _, op := range IOOps() {
		guest, host, _ := Accounting(Native, op)
		if guest != host {
			t.Fatalf("native %v: guest and host accounting must agree", op)
		}
	}
}

// ---------- Figures 2 and 3: throughput distributions ----------

func TestNetThroughputDistributions(t *testing.T) {
	const vol = 10e9
	cov := map[Platform]float64{}
	means := map[Platform]float64{}
	for _, p := range Platforms() {
		samples, err := NetThroughputSamples(p, vol, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != int(vol)/ChunkBytes+1 && len(samples) != int(vol)/ChunkBytes {
			t.Fatalf("%v: unexpected sample count %d", p, len(samples))
		}
		cov[p] = stats.CoefficientOfVariation(samples)
		means[p] = stats.Mean(samples)
	}
	// Native is the fastest and the most stable ("fluctuations ...
	// increased marginally compared to ... native").
	for _, p := range []Platform{KVMFull, KVMParavirt, XenParavirt, EC2} {
		if means[p] >= means[Native] {
			t.Errorf("%v mean %.0f MBit/s >= native %.0f", p, means[p], means[Native])
		}
		if cov[p] <= cov[Native] {
			t.Errorf("%v variation %.3f <= native %.3f", p, cov[p], cov[Native])
		}
	}
	// EC2 shows "heavy throughput variations" — an order of magnitude
	// above the local cloud platforms.
	if cov[EC2] < 5*cov[KVMParavirt] {
		t.Errorf("EC2 CoV %.3f not dramatically above KVM paravirt %.3f", cov[EC2], cov[KVMParavirt])
	}
	// Native saturates gigabit: mean within [850, 1000] MBit/s.
	if means[Native] < 850 || means[Native] > 1000 {
		t.Errorf("native mean %.0f MBit/s implausible for 1 GbE", means[Native])
	}
}

func TestFileWriteXenCachingAnomaly(t *testing.T) {
	const vol = 50e9
	xen, xenRes, err := FileWriteSamples(XenParavirt, vol, 1)
	if err != nil {
		t.Fatal(err)
	}
	kvm, kvmRes, err := FileWriteSamples(KVMParavirt, vol, 1)
	if err != nil {
		t.Fatal(err)
	}
	sx, sk := stats.Summarize(xen), stats.Summarize(kvm)
	// XEN's displayed rate is bimodal: RAM-speed bursts and near-stalls.
	if sx.Max < 500 {
		t.Errorf("XEN max %.0f MB/s: cache bursts missing", sx.Max)
	}
	if sx.Min > 10 {
		t.Errorf("XEN min %.0f MB/s: flush stalls missing", sx.Min)
	}
	// The average *appears* higher than KVM's despite the same disk
	// ("the average data throughput for the XEN-based experiments also
	// spuriously appears to be higher").
	if sx.Mean <= sk.Mean {
		t.Errorf("XEN mean %.0f not spuriously above KVM %.0f", sx.Mean, sk.Mean)
	}
	// KVM file writes look like the native disk: unimodal, tens of MB/s.
	if sk.Mean < 40 || sk.Mean > 110 {
		t.Errorf("KVM file-write mean %.0f MB/s implausible", sk.Mean)
	}
	// Large portions of the 50 GB remain in the host cache afterwards.
	if xenRes < 1<<30 {
		t.Errorf("XEN cache residue %d bytes, want > 1 GiB", xenRes)
	}
	if kvmRes != 0 {
		t.Errorf("KVM cache residue %d, want 0", kvmRes)
	}
}

// ---------- simulated /proc/stat counters ----------

func TestStatCountersAdvance(t *testing.T) {
	c := NewStatCounters(CPUBreakdown{USR: 10, SYS: 30, SIRQ: 10}, 1)
	for i := 0; i < 100; i++ {
		c.Advance(1)
	}
	text := c.ProcStat()
	if len(text) == 0 {
		t.Fatal("empty /proc/stat output")
	}
	// The text must be parseable by the metrics package format (checked
	// in internal/metrics tests); here check raw plausibility: busy share
	// close to 50%.
}

func BenchmarkRunTransfer50GB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := RunTransfer(TransferConfig{
			Platform:   KVMParavirt,
			Kind:       ConstantKind(corpus.High),
			TotalBytes: fiftyGB,
			Scheme:     core.MustNewDecider(core.Config{Levels: 4}),
			Profiles:   ReferenceProfiles(),
			Seed:       uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
