package main

import (
	"fmt"
	"math"

	"adaptio/internal/stats"
)

// metricDef names one metric the benchmark prints.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bounds, end-to-end only: for each workload the metric is bounded on,
	// the share of the reference median by which a run set's median may
	// worsen before -check calls it a regression. On the other workloads the
	// metric is printed, not checked.
	Bounds map[string]float64
	// Driver is the metric's bound in BENCHMARK.json, whose driver holds one
	// bound per metric against single runs of all five workloads, so it is
	// as wide as the noisiest of them needs. 0: the metric is not in
	// BENCHMARK.json's end_to_end, because on some workload its run-to-run
	// spread is wider than any bound the driver accepts (0.25).
	Driver float64
}

// everywhere bounds a metric on all five workloads.
func everywhere(bound float64) map[string]float64 {
	m := make(map[string]float64, len(workloads))
	for _, w := range workloads {
		m[w.name] = bound
	}
	return m
}

// endToEnd is what a user of the data path sees, measured with tracing off:
// ISSUE.md's seven metrics, each bounded on the workloads ISSUE.md lists it
// for. Every workload reports every one of them.
//
// The bounds are ISSUE.md's except on the CPU-bound pairs: the 2-vCPU
// sandbox's single-thread speed drifts by 15 % within minutes, and goodput
// and CPU per GB of the two static workloads drift with it. setup_s has the
// widest bound the driver's contract allows.
var endToEnd = []metricDef{
	{Name: "goodput_mb_s", Unit: "MB/s", Better: "higher", Driver: 0.25, Bounds: map[string]float64{
		"scarce-text": 0.10, "scarce-jpeg": 0.10, "fast-relay": 0.25, "pipeline-bulk": 0.25}},
	{Name: "wire_ratio", Unit: "ratio", Better: "lower", Driver: 0.15, Bounds: map[string]float64{
		"scarce-text": 0.03, "scarce-jpeg": 0.03, "fast-relay": 0.03, "pipeline-bulk": 0.03}},
	{Name: "cpu_s_per_gb", Unit: "s/GB", Better: "lower", Bounds: map[string]float64{
		"fast-relay": 0.25, "pipeline-bulk": 0.25}},
	{Name: "rtt_p50_ms", Unit: "ms", Better: "lower", Driver: 0.25, Bounds: map[string]float64{
		"interactive-echo": 0.10}},
	{Name: "rtt_p99_ms", Unit: "ms", Better: "lower", Bounds: map[string]float64{
		"interactive-echo": 0.25}},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Driver: 0.15, Bounds: everywhere(0.15)},
	{Name: "setup_s", Unit: "s", Better: "lower", Driver: 0.25, Bounds: everywhere(0.25)},
}

// driverEndToEnd is BENCHMARK.json's end_to_end: what a -workload run prints
// in its result line with tracing off.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.Driver > 0 {
			out = append(out, d)
		}
	}
	return out
}

// perLayer is the traced ledger. The layer is the module name; wire is the
// benchmark's pacer, gen its load generator, proc the Go runtime. A metric
// reads 0 on a workload that does not run its layer, or runs it where the
// benchmark's own files cannot see it (bench/README.md says which).
var perLayer = []metricDef{
	// Ladder pass: the workload's own bytes through successive rungs.
	{Name: "compress.lzfast.compress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.lzfast.decompress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.lzfast.ratio", Unit: "ratio", Better: "lower"},
	{Name: "compress.lzfast-hc.compress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.lzfast-hc.decompress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.lzfast-hc.ratio", Unit: "ratio", Better: "lower"},
	{Name: "compress.lzheavy.compress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.lzheavy.ratio", Unit: "ratio", Better: "lower"},
	{Name: "compress.probe.scan_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.probe.hopeless_share", Unit: "share", Better: "lower"},
	{Name: "stream.writer.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "stream.writer.tax", Unit: "share", Better: "lower"},
	{Name: "stream.reader.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "stream.reader.tax", Unit: "share", Better: "lower"},
	{Name: "stream.pwriter.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "stream.pwriter.speedup", Unit: "x", Better: "higher"},
	{Name: "stream.preader.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "stream.loopback.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "stream.loopback.tax", Unit: "share", Better: "lower"},
	{Name: "tunnel.relay.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "tunnel.relay.tax", Unit: "share", Better: "lower"},
	// The workload itself, traced.
	{Name: "stream.probe_skip_share", Unit: "share", Better: "higher"},
	{Name: "stream.raw_fallback_share", Unit: "share", Better: "lower"},
	{Name: "stream.copied_per_app_byte", Unit: "B/B", Better: "lower"},
	{Name: "stream.writer.busy_share", Unit: "share", Better: "lower"},
	{Name: "stream.writer.wire_wait_share", Unit: "share", Better: "higher"},
	{Name: "stream.reader.busy_share", Unit: "share", Better: "lower"},
	{Name: "stream.reader.wait_share", Unit: "share", Better: "higher"},
	{Name: "wire.utilisation", Unit: "share", Better: "higher"},
	{Name: "wire.sleep_share", Unit: "share", Better: "higher"},
	{Name: "gen.write_block_share", Unit: "share", Better: "lower"},
	{Name: "gen.rtt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.windows", Unit: "count", Better: "higher"},
	{Name: "core.switches", Unit: "count", Better: "lower"},
	{Name: "core.probes", Unit: "count", Better: "lower"},
	{Name: "core.wasted_probe_share", Unit: "share", Better: "lower"},
	{Name: "core.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.level_share.no", Unit: "share", Better: "higher"},
	{Name: "stream.level_share.light", Unit: "share", Better: "higher"},
	{Name: "stream.level_share.medium", Unit: "share", Better: "higher"},
	{Name: "stream.level_share.heavy", Unit: "share", Better: "higher"},
	{Name: "core.regret_vs_best_static", Unit: "share", Better: "lower"},
	{Name: "core.best_static_level", Unit: "level", Better: "lower"},
	{Name: "tunnel.copied_per_byte_relayed", Unit: "B/B", Better: "lower"},
	{Name: "tunnel.wire_writes_per_mb", Unit: "1/MB", Better: "lower"},
	{Name: "tunnel.flush_hold_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "stream.frames_per_msg", Unit: "1/msg", Better: "lower"},
	{Name: "stream.wire_bytes_per_msg", Unit: "B/msg", Better: "lower"},
	{Name: "block.gets_per_mb", Unit: "1/MB", Better: "lower"},
	{Name: "block.discards", Unit: "count", Better: "lower"},
	{Name: "block.in_use_at_end", Unit: "count", Better: "lower"},
	{Name: "proc.allocs_per_mb", Unit: "1/MB", Better: "lower"},
	{Name: "proc.alloc_bytes_per_mb", Unit: "B/MB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_s_per_gb", Unit: "s/GB", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// metricValue is one reading, in the shape of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload process prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill turns readings into the result's metric map: every metric of defs
// is present, one the run did not produce reading 0.
func fill(defs []metricDef, readings map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: readings[d.Name], Unit: d.Unit}
	}
	return out
}

// tailBeyond is how many samples must lie beyond a percentile for it to be
// reported as a tail latency.
const tailBeyond = 10

// tailPercentiles are the candidates for the highest supported percentile.
var tailPercentiles = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// latencySummary is a timing reported the way bench/README.md promises: the
// median, and the highest candidate percentile that still has at least
// tailBeyond samples above it.
type latencySummary struct {
	N      int
	Median float64
	TailQ  float64 // the percentile chosen, as a fraction
	Tail   float64
	Beyond int // samples above TailQ
}

func summarize(xs []float64) latencySummary {
	s := latencySummary{N: len(xs), TailQ: 0.50}
	for _, q := range tailPercentiles {
		if beyond(len(xs), q) >= tailBeyond {
			s.TailQ = q
		}
	}
	s.Median = stats.Quantile(xs, 0.50)
	s.Tail = stats.Quantile(xs, s.TailQ)
	s.Beyond = beyond(len(xs), s.TailQ)
	return s
}

// beyond returns how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

func (s latencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%.3f p%g=%.3f (%d beyond)", s.N, s.Median, s.TailQ*100, s.Tail, s.Beyond)
}

// worsening returns by what share of ref the reading cur is worse, given the
// metric's direction; negative when cur is better. No bounded metric reads
// 0 on a run that measured, so a median that is not positive is an error.
func worsening(d metricDef, ref, cur float64) (float64, error) {
	if ref <= 0 || cur <= 0 {
		return 0, fmt.Errorf("medians %v and %v: a run that measured reads above 0", ref, cur)
	}
	if d.Better == "higher" {
		return (ref - cur) / ref, nil
	}
	return (cur - ref) / ref, nil
}
