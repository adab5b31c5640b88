package benchfmt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestAddAndWriteFile(t *testing.T) {
	f := &File{Description: "test artifact"}
	f.Add("BenchmarkX/a", "current", Measurement{MBPerS: 123.4, WastedProbes: 81})
	f.Add("BenchmarkX/a", "pre", Measurement{MBPerS: 100})
	f.Add("BenchmarkY", "current", Measurement{Probes: 6, WastedProbes: 3})

	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back File
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if m := back.Benchmarks["BenchmarkX/a"]["current"]; m.MBPerS != 123.4 || m.WastedProbes != 81 {
		t.Fatalf("round-trip lost data: %+v", m)
	}
	// Zero fields are omitted: a totals entry carries probe counts and no
	// speed.
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	benches := raw["benchmarks"].(map[string]any)
	y := benches["BenchmarkY"].(map[string]any)["current"].(map[string]any)
	if _, ok := y["mb_per_s"]; ok {
		t.Fatalf("zero mb_per_s must be omitted, got %v", y)
	}
}
