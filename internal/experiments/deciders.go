package experiments

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"adaptio/internal/cloudsim"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
)

// DeciderMatrixResult is the policy comparison grid: the Table II workload
// grid with one scheme per policy, Cells[kind][background][policy index].
type DeciderMatrixResult struct{ grid }

// sentinel labels the matrix row that runs core.Static(0): a policy that
// never probes, so it wins the probe-economy axis of the acceptance bound by
// construction and must lose the throughput axis — the proof that the bound
// is two-axis. It is no registry name, so nothing can deploy it.
const sentinel = "cheatstick"

// DeciderMatrix runs the Table II workload grid once per registered policy
// and the never-probe sentinel, on cloudsim.Native at 2 GB per transfer and
// 3 runs per cell: a policy comparison, not a faithful Table II, sized to
// finish in CI seconds. Every policy faces the same environment draw for a
// (kind, background, run), and a policy's own seed folds in its index so
// stochastic policies explore independently. The result is deterministic in
// seed, cell for cell, which is what lets CI gate on it.
func DeciderMatrix(seed uint64) (DeciderMatrixResult, error) {
	res := DeciderMatrixResult{grid{
		Schemes:    append(core.PolicyNames(), sentinel),
		Runs:       3,
		TotalBytes: 2e9,
	}}
	err := res.sweep(cloudsim.Native, cloudsim.ReferenceProfiles(),
		func(kind corpus.Kind, bg, _, run int) uint64 {
			return seed ^ uint64(kind)<<40 ^ uint64(bg)<<32 ^ uint64(run)<<16
		},
		func(pi int, env uint64) core.Policy {
			if res.Schemes[pi] == sentinel {
				return core.Static(0)
			}
			return core.MustNewPolicy(res.Schemes[pi], core.Config{Levels: levels, Seed: env ^ uint64(pi+1)<<8})
		})
	return res, err
}

// Totals sums one policy's probe economics over the whole grid.
func (r DeciderMatrixResult) Totals(policy string) (probes, wasted int) {
	pi := slices.Index(r.Schemes, policy)
	if pi < 0 {
		return 0, 0
	}
	for _, byBg := range r.Cells {
		for _, cells := range byBg {
			probes += cells[pi].Probes
			wasted += cells[pi].WastedProbes
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
// sentinel row exists to fail the first axis — see the matrix tests.
func (r DeciderMatrixResult) CheckBound(policy, baseline string, tol float64) []BoundViolation {
	var v []BoundViolation
	bi, ci := slices.Index(r.Schemes, baseline), slices.Index(r.Schemes, policy)
	if bi < 0 {
		return []BoundViolation{{Policy: policy, Axis: "throughput", Detail: fmt.Sprintf("baseline %q not in matrix", baseline)}}
	}
	if ci < 0 {
		return []BoundViolation{{Policy: policy, Axis: "throughput", Detail: fmt.Sprintf("policy %q not in matrix", policy)}}
	}
	for _, kind := range r.Kinds {
		for _, bg := range r.Backgrounds {
			b, c := r.Cells[kind][bg][bi], r.Cells[kind][bg][ci]
			if c.Mean > b.Mean*(1+tol) {
				v = append(v, BoundViolation{
					Policy: policy,
					Axis:   "throughput",
					Detail: fmt.Sprintf("%s/bg=%d: %.1fs vs baseline %.1fs (>%.0f%% slower)",
						kind, bg, c.Mean, b.Mean, tol*100),
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
	for pi, policy := range r.Schemes {
		fmt.Fprintf(&sb, "%s:\n", policy)
		fmt.Fprintf(&sb, "  %-9s", "bg")
		for _, k := range r.Kinds {
			fmt.Fprintf(&sb, " %16s", k)
		}
		sb.WriteString("\n")
		for _, bg := range r.Backgrounds {
			fmt.Fprintf(&sb, "  %-9d", bg)
			for _, k := range r.Kinds {
				c := r.Cells[k][bg][pi]
				fmt.Fprintf(&sb, " %9.0f (%3.0f) ", c.Mean, c.SD)
			}
			sb.WriteString("\n")
		}
	}
	fmt.Fprintf(&sb, "probe economy (grid totals):\n")
	fmt.Fprintf(&sb, "  %-12s %8s %8s\n", "policy", "probes", "wasted")
	for _, policy := range r.Schemes {
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
	for pi, policy := range r.Schemes {
		for _, kind := range r.Kinds {
			for _, bg := range r.Backgrounds {
				c := r.Cells[kind][bg][pi]
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
