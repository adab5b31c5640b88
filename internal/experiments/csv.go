package experiments

import (
	"encoding/csv"
	"strconv"
	"strings"

	"adaptio/internal/trace"
)

// The CSV exporters emit the raw data behind each figure/table so the
// paper's plots can be regenerated with any plotting tool (the text renders
// are for terminals; these are for gnuplot/matplotlib).

func writeCSV(rows [][]string) string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	// csv.Writer on a strings.Builder cannot fail.
	_ = w.WriteAll(rows)
	w.Flush()
	return sb.String()
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// CSVFig1 exports the Figure 1 accuracy rows.
func CSVFig1(rows []Fig1Row) string {
	out := [][]string{{
		"operation", "platform", "view", "usr", "sys", "hirq", "sirq", "steal", "total",
	}}
	for _, r := range rows {
		out = append(out, []string{
			r.Op.String(), r.Platform.String(), "vm",
			f(r.Guest.USR), f(r.Guest.SYS), f(r.Guest.HIRQ), f(r.Guest.SIRQ), f(r.Guest.STEAL), f(r.Guest.Total()),
		})
		if r.HostVisible {
			out = append(out, []string{
				r.Op.String(), r.Platform.String(), "host",
				f(r.Host.USR), f(r.Host.SYS), f(r.Host.HIRQ), f(r.Host.SIRQ), f(r.Host.STEAL), f(r.Host.Total()),
			})
		}
	}
	return writeCSV(out)
}

// CSVDist exports Figure 2/3 distribution rows.
func CSVDist(rows []DistRow) string {
	out := [][]string{{
		"platform", "n", "mean", "sd", "min", "q1", "median", "q3", "max", "cache_resident_bytes",
	}}
	for _, r := range rows {
		s := r.Summary
		out = append(out, []string{
			r.Platform.String(), strconv.Itoa(s.N),
			f(s.Mean), f(s.SD), f(s.Min), f(s.Q1), f(s.Median), f(s.Q3), f(s.Max),
			strconv.FormatInt(r.CacheResidentBytes, 10),
		})
	}
	return writeCSV(out)
}

// CSVTableII exports the completion-time grid.
func (r TableIIResult) CSVTableII() string {
	out := [][]string{{"kind", "background", "scheme", "mean_seconds", "sd_seconds"}}
	for _, kind := range r.Kinds {
		for _, bg := range r.Backgrounds {
			for si, name := range SchemeNames {
				c := r.Cells[kind][bg][si]
				out = append(out, []string{
					kind.String(), strconv.Itoa(bg), name, f(c.Mean), f(c.SD),
				})
			}
		}
	}
	return writeCSV(out)
}

// CSVTrace exports a Figure 4/5/6 time series.
func CSVTrace(tr *trace.Trace) string {
	out := [][]string{{"time_s", "level", "app_mbps", "wire_mbps", "cpu_pct"}}
	for _, p := range tr.Points() {
		out = append(out, []string{
			f(p.Time), strconv.Itoa(p.Level), f(p.AppMBps), f(p.WireMBps), f(p.CPUPct),
		})
	}
	return writeCSV(out)
}

// CSVAblation exports A1-A3 rows.
func CSVAblation(rows []AblationRow) string {
	out := [][]string{{"variant", "completion_seconds", "level_switches", "mean_level"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Label, f(r.CompletionSeconds), strconv.Itoa(r.LevelSwitches), f(r.MeanLevel),
		})
	}
	return writeCSV(out)
}

// CSVBaselines exports the A4 grid.
func CSVBaselines(rows []BaselineRow) string {
	out := [][]string{{"scenario", "scheme", "completion_seconds"}}
	for _, r := range rows {
		out = append(out, []string{r.Scenario, r.Scheme, f(r.Seconds)})
	}
	return writeCSV(out)
}

// CSVFileChannel exports the A5 grid.
func CSVFileChannel(rows []FileChannelRow) string {
	out := [][]string{{
		"platform", "kind", "scheme", "completion_seconds", "durable_seconds",
		"cache_resident_gb", "level_switches", "mean_level",
	}}
	for _, r := range rows {
		out = append(out, []string{
			r.Platform.String(), r.Kind.String(), r.Scheme,
			f(r.CompletionSeconds), f(r.DurableSeconds), f(r.CacheResidentGB),
			strconv.Itoa(r.LevelSwitches), f(r.MeanLevel),
		})
	}
	return writeCSV(out)
}

// CSVCalibration exports the live codec measurements.
func CSVCalibration(ms []CodecMeasurement) string {
	out := [][]string{{"level", "kind", "comp_mbps", "decomp_mbps", "ratio"}}
	for _, m := range ms {
		out = append(out, []string{
			m.Level, m.Kind.String(), f(m.CompMBps), f(m.DecompMBps), f(m.Ratio),
		})
	}
	return writeCSV(out)
}
