package experiments_test

import (
	"encoding/csv"
	"strings"
	"testing"

	"adaptio/internal/experiments"
	"adaptio/internal/stream"
	"adaptio/internal/trace"
)

// parseCSV asserts well-formed CSV and returns the records.
func parseCSV(t *testing.T, content string) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(content)).ReadAll()
	if err != nil {
		t.Fatalf("malformed CSV: %v", err)
	}
	if len(recs) < 2 {
		t.Fatalf("CSV has no data rows:\n%s", content)
	}
	for i, r := range recs {
		if len(r) != len(recs[0]) {
			t.Fatalf("row %d has %d fields, header has %d", i, len(r), len(recs[0]))
		}
	}
	return recs
}

func TestCSVExports(t *testing.T) {
	fig1, err := experiments.Fig1CPUAccuracy(1)
	if err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, experiments.CSVFig1(fig1))
	// 20 platform/op pairs: every one has a vm row, 16 have a host row.
	if got := len(recs) - 1; got != 20+16 {
		t.Fatalf("fig1 CSV has %d rows, want 36", got)
	}

	dist, err := experiments.Fig2NetThroughput(2e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(parseCSV(t, experiments.CSVDist(dist))) - 1; got != 5 {
		t.Fatalf("fig2 CSV has %d rows, want 5", got)
	}

	table, err := experiments.TableII(experiments.TableIIConfig{TotalBytes: 2e9, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(parseCSV(t, table.CSVTableII())) - 1; got != 3*4*5 {
		t.Fatalf("table2 CSV has %d rows, want 60", got)
	}

	tr := trace.New(4)
	tr.Add(trace.Point{Time: 2, Level: 1, AppMBps: 10, WireMBps: 5, CPUPct: 50})
	if got := len(parseCSV(t, experiments.CSVTrace(tr))) - 1; got != 1 {
		t.Fatalf("trace CSV has %d rows, want 1", got)
	}

	a3, err := experiments.AblationBackoff(2e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	parseCSV(t, experiments.CSVAblation(a3))

	a4, err := experiments.AblationBaselines(2e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	parseCSV(t, experiments.CSVBaselines(a4))

	a5, err := experiments.FileChannel(2e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	parseCSV(t, experiments.CSVFileChannel(a5))

	ms, _, err := experiments.Calibrate(stream.DefaultLadder(), 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	parseCSV(t, experiments.CSVCalibration(ms))
}
