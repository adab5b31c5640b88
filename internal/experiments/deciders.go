package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"adaptio/internal/cloudsim"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/stats"
)

// DeciderCell is one (policy, kind, background) cell of the decider matrix:
// the Table II transfer repeated under a specific level-selection policy,
// with the policy's probe economics summed over the cell's runs.
type DeciderCell struct {
	MeanSeconds float64 `json:"mean_seconds"`
	SDSeconds   float64 `json:"sd_seconds"`
	MBPerS      float64 `json:"mb_per_s"`
	// Probes and WastedProbes are totals over the cell's runs.
	Probes       int `json:"probes"`
	WastedProbes int `json:"wasted_probes"`
}

// DeciderMatrixResult is the full policy comparison grid:
// [policy][kind][background] over the Table II workload matrix.
type DeciderMatrixResult struct {
	Policies    []string
	Kinds       []corpus.Kind
	Backgrounds []int
	Runs        int
	TotalBytes  int64
	Cells       map[string]map[corpus.Kind]map[int]DeciderCell
}

// DeciderMatrixConfig parameterizes the sweep. The zero value gives the CI
// configuration: every registered policy plus the CheatStick sentinel, the
// full Table II workload grid at 2 GB per transfer, 3 runs per cell.
type DeciderMatrixConfig struct {
	// Policies to sweep; nil means core.PolicyNames() + the sentinel.
	Policies []string
	// TotalBytes per transfer; zero means 2 GB (the matrix is a policy
	// comparison, not a faithful Table II reproduction — smaller volumes
	// keep the full grid inside CI seconds).
	TotalBytes int64
	// Runs per cell; zero means 3.
	Runs int
	// Backgrounds lists concurrent-connection counts; nil means 0..3.
	Backgrounds []int
	Platform    cloudsim.Platform
	Seed        uint64
}

// DeciderMatrix runs the Table II workload grid once per policy. All
// decisions are seeded and deterministic: the same config produces the same
// result, cell for cell, which is what lets CI gate on it.
func DeciderMatrix(cfg DeciderMatrixConfig) (DeciderMatrixResult, error) {
	if cfg.Policies == nil {
		cfg.Policies = append(core.PolicyNames(), core.PolicyCheatStick)
	}
	if cfg.TotalBytes == 0 {
		cfg.TotalBytes = 2e9
	}
	if cfg.Runs == 0 {
		cfg.Runs = 3
	}
	if cfg.Backgrounds == nil {
		cfg.Backgrounds = []int{0, 1, 2, 3}
	}
	res := DeciderMatrixResult{
		Policies:    cfg.Policies,
		Kinds:       corpus.Kinds(),
		Backgrounds: cfg.Backgrounds,
		Runs:        cfg.Runs,
		TotalBytes:  cfg.TotalBytes,
		Cells:       map[string]map[corpus.Kind]map[int]DeciderCell{},
	}
	profiles := cloudsim.ReferenceProfiles()
	for pi, policy := range cfg.Policies {
		if !core.ValidPolicy(policy) {
			return res, fmt.Errorf("experiments: unknown decider policy %q", policy)
		}
		res.Cells[policy] = map[corpus.Kind]map[int]DeciderCell{}
		for _, kind := range res.Kinds {
			res.Cells[policy][kind] = map[int]DeciderCell{}
			for _, bg := range cfg.Backgrounds {
				var cell DeciderCell
				times := make([]float64, cfg.Runs)
				for run := 0; run < cfg.Runs; run++ {
					// The workload seed is policy-independent (every
					// policy faces the identical environment draw);
					// the policy seed folds in the policy index so
					// stochastic policies explore independently.
					wseed := cfg.Seed ^ uint64(kind)<<40 ^ uint64(bg)<<32 ^ uint64(run)<<16
					d := core.MustNewPolicy(policy, core.Config{
						Levels: len(profiles),
						Seed:   wseed ^ uint64(pi+1)<<8,
					})
					r, err := cloudsim.RunTransfer(cloudsim.TransferConfig{
						Platform:   cfg.Platform,
						Kind:       cloudsim.ConstantKind(kind),
						TotalBytes: cfg.TotalBytes,
						Background: bg,
						Scheme:     d,
						Profiles:   profiles,
						Seed:       wseed,
					})
					if err != nil {
						return res, err
					}
					times[run] = r.CompletionSeconds
					ps := d.PolicyStats()
					cell.Probes += ps.Probes
					cell.WastedProbes += ps.WastedProbes
				}
				cell.MeanSeconds, cell.SDSeconds = stats.MeanStdDev(times)
				if cell.MeanSeconds > 0 {
					cell.MBPerS = float64(cfg.TotalBytes) / 1e6 / cell.MeanSeconds
				}
				res.Cells[policy][kind][bg] = cell
			}
		}
	}
	return res, nil
}

// Totals sums one policy's probe economics over the whole grid.
func (r DeciderMatrixResult) Totals(policy string) (probes, wasted int) {
	for _, byKind := range r.Cells[policy] {
		for _, cell := range byKind {
			probes += cell.Probes
			wasted += cell.WastedProbes
		}
	}
	return probes, wasted
}

// BoundViolation describes one failed axis of the acceptance bound.
type BoundViolation struct {
	Policy string
	Axis   string // "throughput" or "wasted-probes"
	Detail string
}

// DefaultThroughputTolerance is how much slower (fractional mean completion
// time) a learned policy may be than AlgorithmOne in any single cell and
// still count as "within". Calibrated against the committed matrix: the
// learned policies sit within ±2% of AlgorithmOne cell-for-cell, so 8%
// leaves headroom for profile recalibration without admitting a policy that
// actually trades throughput for probe savings.
const DefaultThroughputTolerance = 0.08

// CheckBound evaluates the two-axis acceptance bound of docs/deciders.md
// for one policy against the baseline (conventionally
// core.PolicyAlgorithmOne) inside the same matrix:
//
//   - throughput: in every cell, the policy's mean completion time is
//     within tol of the baseline's (within-or-better);
//   - probe economy: summed over the grid, the policy wastes strictly
//     fewer probes than the baseline (equal allowed only when the baseline
//     wastes none).
//
// Both axes must hold; the returned violations list every failure. The
// CheatStick sentinel exists to fail the first axis — see the matrix tests.
func (r DeciderMatrixResult) CheckBound(policy, baseline string, tol float64) []BoundViolation {
	var v []BoundViolation
	base, ok := r.Cells[baseline]
	if !ok {
		return []BoundViolation{{Policy: policy, Axis: "throughput", Detail: fmt.Sprintf("baseline %q not in matrix", baseline)}}
	}
	cand, ok := r.Cells[policy]
	if !ok {
		return []BoundViolation{{Policy: policy, Axis: "throughput", Detail: fmt.Sprintf("policy %q not in matrix", policy)}}
	}
	for _, kind := range r.Kinds {
		for _, bg := range r.Backgrounds {
			b, c := base[kind][bg], cand[kind][bg]
			if c.MeanSeconds > b.MeanSeconds*(1+tol) {
				v = append(v, BoundViolation{
					Policy: policy,
					Axis:   "throughput",
					Detail: fmt.Sprintf("%s/bg=%d: %.1fs vs baseline %.1fs (>%.0f%% slower)",
						kind, bg, c.MeanSeconds, b.MeanSeconds, tol*100),
				})
			}
		}
	}
	bp, bw := r.Totals(baseline)
	_, cw := r.Totals(policy)
	switch {
	case bw == 0 && cw > 0:
		v = append(v, BoundViolation{
			Policy: policy,
			Axis:   "wasted-probes",
			Detail: fmt.Sprintf("wasted %d probes, baseline wasted none", cw),
		})
	case bw > 0 && cw >= bw:
		v = append(v, BoundViolation{
			Policy: policy,
			Axis:   "wasted-probes",
			Detail: fmt.Sprintf("wasted %d probes vs baseline %d (must be strictly lower; baseline probed %d)", cw, bw, bp),
		})
	}
	return v
}

// Render formats the matrix: one block per policy with per-cell completion
// times, then a probe-economy summary comparing every policy against the
// paper baseline.
func (r DeciderMatrixResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- Decider matrix: mean completion seconds (SD), %d runs, %.1f GB ---\n",
		r.Runs, float64(r.TotalBytes)/1e9)
	for _, policy := range r.Policies {
		fmt.Fprintf(&sb, "%s:\n", policy)
		fmt.Fprintf(&sb, "  %-9s", "bg")
		for _, k := range r.Kinds {
			fmt.Fprintf(&sb, " %16s", k)
		}
		sb.WriteString("\n")
		for _, bg := range r.Backgrounds {
			fmt.Fprintf(&sb, "  %-9d", bg)
			for _, k := range r.Kinds {
				c := r.Cells[policy][k][bg]
				fmt.Fprintf(&sb, " %9.0f (%3.0f) ", c.MeanSeconds, c.SDSeconds)
			}
			sb.WriteString("\n")
		}
	}
	fmt.Fprintf(&sb, "probe economy (grid totals):\n")
	fmt.Fprintf(&sb, "  %-12s %8s %8s\n", "policy", "probes", "wasted")
	for _, policy := range r.Policies {
		p, w := r.Totals(policy)
		fmt.Fprintf(&sb, "  %-12s %8d %8d\n", policy, p, w)
	}
	return sb.String()
}

// benchArtifact is the schema of BENCH_decider.json: entry name -> set name ->
// measurement. The one set is "current"; the level stays because the file's
// bytes are pinned.
type benchArtifact struct {
	Description string                                 `json:"description"`
	Benchmarks  map[string]map[string]benchMeasurement `json:"benchmarks"`
}

// benchMeasurement is one entry's metrics. Zero-valued fields are omitted, so
// a totals entry carries probe counts and no speed.
type benchMeasurement struct {
	MBPerS       float64 `json:"mb_per_s,omitempty"`
	Probes       int64   `json:"probes,omitempty"`
	WastedProbes int64   `json:"wasted_probes,omitempty"`
}

// benchFile lays the matrix out as BENCH_decider.json: one entry per
// (policy, kind, background) cell named "Decider/<policy>/<kind>/bg<N>", plus
// a "Decider/<policy>/totals" entry carrying the grid-total probe economics.
func (r DeciderMatrixResult) benchFile() benchArtifact {
	f := benchArtifact{
		Description: "decider policy matrix: Table II per policy (cmd/expdriver -decider-matrix)",
		Benchmarks:  map[string]map[string]benchMeasurement{},
	}
	add := func(name string, m benchMeasurement) {
		f.Benchmarks[name] = map[string]benchMeasurement{"current": m}
	}
	for _, policy := range r.Policies {
		for _, kind := range r.Kinds {
			for _, bg := range r.Backgrounds {
				c := r.Cells[policy][kind][bg]
				add(fmt.Sprintf("Decider/%s/%s/bg%d", policy, kind, bg), benchMeasurement{
					MBPerS:       c.MBPerS,
					Probes:       int64(c.Probes),
					WastedProbes: int64(c.WastedProbes),
				})
			}
		}
		p, w := r.Totals(policy)
		add(fmt.Sprintf("Decider/%s/totals", policy), benchMeasurement{Probes: int64(p), WastedProbes: int64(w)})
	}
	return f
}

// BenchJSON renders the matrix as the artifact committed as
// BENCH_decider.json, indented with sorted keys and a trailing newline. The
// matrix is deterministic in its seed, so TestDeciderMatrixGolden compares
// the bytes.
func (r DeciderMatrixResult) BenchJSON() ([]byte, error) {
	data, err := json.MarshalIndent(r.benchFile(), "", "  ")
	return append(data, '\n'), err
}
