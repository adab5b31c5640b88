// Package benchfmt is the JSON schema of the committed decider matrix
// (BENCH_decider.json, written by `expdriver -decider-matrix -json-out` and
// compared byte-for-byte by internal/experiments' golden test).
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
)

// Measurement is one entry's metrics under one set. Zero-valued fields are
// omitted.
type Measurement struct {
	MBPerS float64 `json:"mb_per_s,omitempty"`
	// Probes and WastedProbes carry decider probe economics.
	Probes       int64 `json:"probes,omitempty"`
	WastedProbes int64 `json:"wasted_probes,omitempty"`
}

// File is a whole artifact: entry name -> set name -> measurement. The
// writer uses the one set "current"; the level stays because
// BENCH_decider.json's bytes are pinned.
type File struct {
	Description string                            `json:"description"`
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

// Marshal renders f deterministically (json.MarshalIndent sorts map keys)
// with a trailing newline.
func (f *File) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	return append(data, '\n'), nil
}

// WriteFile writes f's Marshal form to path.
func WriteFile(path string, f *File) error {
	data, err := f.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
