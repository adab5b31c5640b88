// Package benchfmt defines the shared JSON schema for performance
// artifacts: the committed baselines (BENCH_alloc.json,
// BENCH_throughput.json) that cmd/benchdiff gates against, BENCH_decider.json
// and the -json-out emitter of cmd/acprobe all speak this format — so a
// nightly artifact can be diffed against a committed baseline without
// translation.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Measurement is one benchmark's metrics under one set. Zero-valued fields
// are omitted: an alloc baseline carries bytes/allocs, a throughput
// baseline mb_per_s.
type Measurement struct {
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	// Probes and WastedProbes carry decider probe economics
	// (BENCH_decider.json).
	Probes       int64  `json:"probes,omitempty"`
	WastedProbes int64  `json:"wasted_probes,omitempty"`
	Note         string `json:"note,omitempty"`
}

// File is a whole baseline/artifact document: benchmark name -> set name ->
// measurement. Set names identify when the numbers were taken
// ("pre_fastpath", "current") or where ("acprobe").
type File struct {
	Description string                            `json:"description"`
	Go          string                            `json:"go,omitempty"`
	Benchtime   string                            `json:"benchtime,omitempty"`
	Benchmarks  map[string]map[string]Measurement `json:"benchmarks"`
}

// Add records one measurement, creating maps as needed.
func (f *File) Add(bench, set string, m Measurement) {
	if f.Benchmarks == nil {
		f.Benchmarks = make(map[string]map[string]Measurement)
	}
	sets := f.Benchmarks[bench]
	if sets == nil {
		sets = make(map[string]Measurement)
		f.Benchmarks[bench] = sets
	}
	sets[set] = m
}

// Names returns the benchmark names in sorted order.
func (f *File) Names() []string {
	names := make([]string, 0, len(f.Benchmarks))
	for n := range f.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteFile marshals f deterministically (json.MarshalIndent sorts map
// keys) and writes it to path with a trailing newline.
func WriteFile(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("benchfmt: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
