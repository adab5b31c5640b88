// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index): the metric-accuracy
// study of Section II (Figures 1–3), the Table II completion-time grid, the
// adaptivity traces (Figures 4–6), the ablation studies A1–A6 and the claims
// checklist. Each experiment has a Render function producing the text
// equivalent of the paper's plot or table. Paper lists them as the harness
// prints them; cmd/expdriver and the harness golden both loop over it.
package experiments

import (
	"fmt"
	"strings"

	"adaptio/internal/cloudsim"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/metrics"
	"adaptio/internal/stats"
)

// FiftyGB is the data volume of the paper's transfer experiments.
const FiftyGB int64 = 50e9

// paperLadder names the paper's compression levels; its length is the
// ladder size every experiment decides over.
var paperLadder = [...]string{"NO", "LIGHT", "MEDIUM", "HEAVY"}

// levels is the size of the paper's ladder.
const levels = len(paperLadder)

// LevelNames are the paper's names for the default ladder.
var LevelNames = paperLadder[:]

// SchemeNames lists Table II's rows in order: the static levels, then the
// adaptive scheme at index Dynamic.
var SchemeNames = append(LevelNames[:levels:levels], "DYNAMIC")

// Dynamic is the scheme index of the adaptive decision model.
const Dynamic = levels

// newScheme builds the scheme for a Table II row: a static level, or
// Algorithm 1 at the paper's parameters for Dynamic.
func newScheme(idx int) core.Policy {
	if idx == Dynamic {
		return core.MustNewDecider(core.Config{Levels: levels})
	}
	return core.Static(idx)
}

// ---------- Figure 1 ----------

// Fig1Row is one platform/operation cell of Figure 1: the averaged sampled
// CPU breakdown as displayed inside the VM and as observed on the host.
type Fig1Row struct {
	Platform    cloudsim.Platform
	Op          cloudsim.IOOp
	Guest       cloudsim.CPUBreakdown
	Host        cloudsim.CPUBreakdown
	HostVisible bool
	Samples     int
}

// GapFactor returns host/guest total utilization (the paper's "factor 15").
func (r Fig1Row) GapFactor() float64 {
	if !r.HostVisible || r.Guest.Total() == 0 {
		return 0
	}
	return r.Host.Total() / r.Guest.Total()
}

// Fig1CPUAccuracy reproduces the Figure 1 methodology: for every platform
// and I/O operation it samples the guest's and the host's /proc/stat-style
// counters at 1 s intervals through the real metrics.Sampler and averages
// 120 individual measurements, as the paper did.
func Fig1CPUAccuracy(seed uint64) ([]Fig1Row, error) {
	const samples = 120
	var rows []Fig1Row
	for _, op := range cloudsim.IOOps() {
		for _, p := range cloudsim.Platforms() {
			guestTruth, hostTruth, hostVisible := cloudsim.Accounting(p, op)
			guestAvg, err := sampleBreakdown(guestTruth, samples, seed^uint64(p)<<8^uint64(op))
			if err != nil {
				return nil, err
			}
			row := Fig1Row{Platform: p, Op: op, Guest: guestAvg, HostVisible: hostVisible, Samples: samples}
			if hostVisible {
				hostAvg, err := sampleBreakdown(hostTruth, samples, seed^uint64(p)<<8^uint64(op)^0xB0B)
				if err != nil {
					return nil, err
				}
				row.Host = hostAvg
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// sampleBreakdown runs the 1 s delta-sampling loop against simulated
// counters and averages the utilization split.
func sampleBreakdown(truth cloudsim.CPUBreakdown, samples int, seed uint64) (cloudsim.CPUBreakdown, error) {
	counters := cloudsim.NewStatCounters(truth, seed)
	src := metrics.FuncSource(func() (string, error) {
		counters.Advance(1.0)
		return counters.ProcStat(), nil
	})
	sampler := metrics.NewSampler(src)
	var agg cloudsim.CPUBreakdown
	n := 0
	for n < samples {
		u, ok, err := sampler.Sample()
		if err != nil {
			return agg, err
		}
		if !ok {
			continue
		}
		agg = agg.Add(cloudsim.CPUBreakdown{USR: u.USR, SYS: u.SYS, HIRQ: u.HIRQ, SIRQ: u.SIRQ, STEAL: u.STEAL})
		n++
	}
	return agg.Scale(1 / float64(n)), nil
}

// RenderFig1 formats the Figure 1 rows as four per-operation tables.
func RenderFig1(rows []Fig1Row) string {
	var sb strings.Builder
	byOp := map[cloudsim.IOOp][]Fig1Row{}
	for _, r := range rows {
		byOp[r.Op] = append(byOp[r.Op], r)
	}
	for _, op := range cloudsim.IOOps() {
		fmt.Fprintf(&sb, "--- Figure 1: %s ---\n", op)
		fmt.Fprintf(&sb, "%-16s %-5s %6s %6s %6s %6s %6s %7s\n",
			"platform", "view", "USR", "SYS", "HIRQ", "SIRQ", "STEAL", "total")
		for _, r := range byOp[op] {
			fmt.Fprintf(&sb, "%-16s %-5s %6.1f %6.1f %6.1f %6.1f %6.1f %7.1f\n",
				r.Platform, "VM", r.Guest.USR, r.Guest.SYS, r.Guest.HIRQ, r.Guest.SIRQ, r.Guest.STEAL, r.Guest.Total())
			if r.HostVisible {
				fmt.Fprintf(&sb, "%-16s %-5s %6.1f %6.1f %6.1f %6.1f %6.1f %7.1f  (gap %.1fx)\n",
					"", "Host", r.Host.USR, r.Host.SYS, r.Host.HIRQ, r.Host.SIRQ, r.Host.STEAL, r.Host.Total(), r.GapFactor())
			} else {
				fmt.Fprintf(&sb, "%-16s %-5s %s\n", "", "Host", "(not observable)")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// ---------- Figures 2 and 3 ----------

// DistRow is one platform's throughput distribution.
type DistRow struct {
	Platform cloudsim.Platform
	Summary  stats.Summary
	// CacheResidentBytes is nonzero when data remained in the host page
	// cache after the run (Figure 3, XEN).
	CacheResidentBytes int64
}

// Fig2NetThroughput reproduces Figure 2: the distribution of per-20 MB
// network send throughput (MBit/s) observed inside the sending VM on every
// platform.
func Fig2NetThroughput(totalBytes int64, seed uint64) ([]DistRow, error) {
	var rows []DistRow
	for _, p := range cloudsim.Platforms() {
		samples, err := cloudsim.NetThroughputSamples(p, totalBytes, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DistRow{Platform: p, Summary: stats.Summarize(samples)})
	}
	return rows, nil
}

// Fig3FileWriteThroughput reproduces Figure 3: the distribution of per-20 MB
// file write throughput (MB/s) observed inside the VM, including the XEN
// host-page-cache anomaly.
func Fig3FileWriteThroughput(totalBytes int64, seed uint64) ([]DistRow, error) {
	var rows []DistRow
	for _, p := range cloudsim.Platforms() {
		samples, resident, err := cloudsim.FileWriteSamples(p, totalBytes, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DistRow{Platform: p, Summary: stats.Summarize(samples), CacheResidentBytes: resident})
	}
	return rows, nil
}

// RenderDist formats distribution rows as a box-plot table.
func RenderDist(title, unit string, rows []DistRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s ---\n", title)
	fmt.Fprintf(&sb, "%-16s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"platform", "mean", "sd", "min", "q1", "median", "q3", "max", "unit")
	for _, r := range rows {
		s := r.Summary
		fmt.Fprintf(&sb, "%-16s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8s",
			r.Platform, s.Mean, s.SD, s.Min, s.Q1, s.Median, s.Q3, s.Max, unit)
		if r.CacheResidentBytes > 0 {
			fmt.Fprintf(&sb, "  [%0.1f GB still in host cache]", float64(r.CacheResidentBytes)/1e9)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// ---------- Table II ----------

// Cell is one (kind, background, scheme) entry of a sweep: the mean (SD)
// completion time over the cell's runs, the goodput that mean implies, and
// the scheme's probe economics summed over the runs.
type Cell struct {
	Mean         float64
	SD           float64
	MBPerS       float64
	Probes       int
	WastedProbes int
}

// grid is a sweep of the paper's workload grid, every kind at 0..3 background
// connections: Cells[kind][background][scheme], each cell over Runs
// transfers of TotalBytes.
type grid struct {
	Schemes     []string
	Kinds       []corpus.Kind
	Backgrounds []int
	Runs        int
	TotalBytes  int64
	Cells       map[corpus.Kind]map[int][]Cell
}

// sweep runs every cell of the grid on platform against profiles. envSeed
// gives one transfer's environment seed, and newPolicy builds its scheme
// from the scheme index and that seed.
func (g *grid) sweep(platform cloudsim.Platform, profiles []cloudsim.CodecProfile,
	envSeed func(kind corpus.Kind, bg, si, run int) uint64, newPolicy func(si int, env uint64) core.Policy) error {
	g.Kinds, g.Backgrounds = corpus.Kinds(), []int{0, 1, 2, 3}
	g.Cells = map[corpus.Kind]map[int][]Cell{}
	for _, kind := range g.Kinds {
		g.Cells[kind] = map[int][]Cell{}
		for _, bg := range g.Backgrounds {
			cells := make([]Cell, len(g.Schemes))
			for si := range cells {
				c := &cells[si]
				times := make([]float64, g.Runs)
				for run := range times {
					env := envSeed(kind, bg, si, run)
					scheme := newPolicy(si, env)
					r, err := cloudsim.RunTransfer(cloudsim.TransferConfig{
						Platform:   platform,
						Kind:       cloudsim.ConstantKind(kind),
						TotalBytes: g.TotalBytes,
						Background: bg,
						Scheme:     scheme,
						Profiles:   profiles,
						Seed:       env,
					})
					if err != nil {
						return err
					}
					times[run] = r.CompletionSeconds
					if d, ok := scheme.(core.Decider); ok {
						ps := d.PolicyStats()
						c.Probes += ps.Probes
						c.WastedProbes += ps.WastedProbes
					}
				}
				c.Mean, c.SD = stats.MeanStdDev(times)
				if c.Mean > 0 {
					c.MBPerS = float64(g.TotalBytes) / 1e6 / c.Mean
				}
			}
			g.Cells[kind][bg] = cells
		}
	}
	return nil
}

// TableIIResult holds the full grid: [kind][background][scheme], the
// schemes being SchemeNames.
type TableIIResult struct{ grid }

// TableIIConfig parameterizes the Table II sweep, which runs on the paper's
// platform, KVM with paravirtualized I/O, at 0..3 background connections.
type TableIIConfig struct {
	// TotalBytes per transfer; the paper's is FiftyGB.
	TotalBytes int64
	// Runs per cell (the paper averaged multiple runs).
	Runs int
	Seed uint64
	// Profiles overrides the codec profile ladder; nil means the
	// paper-derived cloudsim.ReferenceProfiles. Pass the ladder from
	// Calibrate to sweep Table II against this machine's real codecs.
	Profiles []cloudsim.CodecProfile
}

// TableII runs the paper's central experiment: completion times of a bulk
// transfer for every (compressibility, background connections, scheme)
// combination, averaged over Runs repetitions.
func TableII(cfg TableIIConfig) (TableIIResult, error) {
	profiles := cfg.Profiles
	if profiles == nil {
		profiles = cloudsim.ReferenceProfiles()
	}
	res := TableIIResult{grid{Schemes: SchemeNames, Runs: cfg.Runs, TotalBytes: cfg.TotalBytes}}
	err := res.sweep(cloudsim.KVMParavirt, profiles,
		func(kind corpus.Kind, bg, si, run int) uint64 {
			return cfg.Seed ^ uint64(kind)<<40 ^ uint64(bg)<<32 ^ uint64(si)<<24 ^ uint64(run)
		},
		func(si int, _ uint64) core.Policy { return newScheme(si) })
	return res, err
}

// Best returns the scheme index with the lowest mean in a cell group.
func (r TableIIResult) Best(kind corpus.Kind, bg int) int {
	cells := r.Cells[kind][bg]
	best := 0
	for i := range cells {
		if cells[i].Mean < cells[best].Mean {
			best = i
		}
	}
	return best
}

// DynamicGap returns how far DYNAMIC is above the best *static* scheme, as
// a fraction (0.1 = 10% worse). The paper's bound is 0.22.
func (r TableIIResult) DynamicGap(kind corpus.Kind, bg int) float64 {
	cells := r.Cells[kind][bg]
	best := cells[0].Mean
	for _, c := range cells[1:Dynamic] {
		best = min(best, c.Mean)
	}
	return cells[Dynamic].Mean/best - 1
}

// DynamicGapSignificant reports whether the DYNAMIC-vs-best-static gap is
// statistically significant at the two-sided 5% level (Welch's t on the
// cell summaries). An insignificant gap means DYNAMIC is within run-to-run
// noise of the best static choice.
func (r TableIIResult) DynamicGapSignificant(kind corpus.Kind, bg int) bool {
	cells := r.Cells[kind][bg]
	best := cells[0]
	for _, c := range cells[1:Dynamic] {
		if c.Mean < best.Mean {
			best = c
		}
	}
	t, df := stats.WelchTSummary(cells[Dynamic].Mean, cells[Dynamic].SD, r.Runs, best.Mean, best.SD, r.Runs)
	return stats.SignificantAt05(t, df)
}

// Render formats the grid in the paper's layout: one block per background
// count, columns HIGH/MODERATE/LOW, rows NO..DYNAMIC, best mean in [].
func (r TableIIResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- Table II: completion times in seconds, mean (SD) over %d runs, %.0f GB ---\n",
		r.Runs, float64(r.TotalBytes)/1e9)
	for _, bg := range r.Backgrounds {
		fmt.Fprintf(&sb, "%d concurrent TCP connection(s):\n", bg)
		fmt.Fprintf(&sb, "%-9s", "")
		for _, k := range r.Kinds {
			fmt.Fprintf(&sb, " %16s", k)
		}
		sb.WriteString("\n")
		for si, name := range SchemeNames {
			fmt.Fprintf(&sb, "%-9s", name)
			for _, k := range r.Kinds {
				c := r.Cells[k][bg][si]
				mark := " "
				if r.Best(k, bg) == si {
					mark = "*"
				}
				fmt.Fprintf(&sb, " %9.0f (%3.0f)%s", c.Mean, c.SD, mark)
			}
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "%-9s", "dyn gap")
		for _, k := range r.Kinds {
			sig := " (ns)" // not significant: within run-to-run noise
			if r.DynamicGapSignificant(k, bg) {
				sig = "     "
			}
			fmt.Fprintf(&sb, " %10.0f%%%s", r.DynamicGap(k, bg)*100, sig)
		}
		sb.WriteString("\n\n")
	}
	return sb.String()
}

// ---------- Figures 4, 5, 6 ----------

// runTrace executes one traced transfer and returns its decision windows.
func runTrace(kind cloudsim.KindSchedule, bg int, totalBytes int64, seed uint64) (Trace, error) {
	var tr Trace
	_, err := cloudsim.RunTransfer(cloudsim.TransferConfig{
		Platform:   cloudsim.KVMParavirt,
		Kind:       kind,
		TotalBytes: totalBytes,
		Background: bg,
		Scheme:     newScheme(Dynamic),
		Profiles:   cloudsim.ReferenceProfiles(),
		Seed:       seed,
		Trace:      func(ws cloudsim.WindowSample) { tr = append(tr, ws) },
	})
	return tr, err
}

// Fig4Trace reproduces Figure 4: the adaptive scheme on highly compressible
// data with no background traffic. The trace shows fast convergence to
// LIGHT and exponentially rarer probing.
func Fig4Trace(totalBytes int64, seed uint64) (Trace, error) {
	return runTrace(cloudsim.ConstantKind(corpus.High), 0, totalBytes, seed)
}

// Fig5Trace reproduces Figure 5: hardly compressible data with two
// concurrent background connections; level differences sit inside the α
// band so probing continues throughout.
func Fig5Trace(totalBytes int64, seed uint64) (Trace, error) {
	return runTrace(cloudsim.ConstantKind(corpus.Low), 2, totalBytes, seed)
}

// Fig6Switch reproduces Figure 6: the data compressibility alternates
// between HIGH and LOW across five phases (the paper: every 10 GB of a
// 50 GB transfer; at reduced volumes the phase length scales so the five
// phases are preserved). The scheme must detect the switches and change
// levels accordingly.
func Fig6Switch(totalBytes int64, seed uint64) (Trace, error) {
	phase := max(totalBytes/5, 1)
	return runTrace(cloudsim.AlternatingKinds(phase, corpus.High, corpus.Low), 0, totalBytes, seed)
}
