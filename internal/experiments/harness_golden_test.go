package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestHarnessGolden pins the paper harness byte for byte: every section the
// entries of Paper print, text and CSV, at 2 GB, 2 runs per Table II cell
// and seed 7, and the decider matrix's text at seed 7. Every one of them is
// a deterministic simulation, so any difference is a behaviour change. The
// entries' Live runs, A6 and the codec calibration, time this machine's
// codecs and are not run. At this volume two claims read FAIL: 2 GB fits in
// XEN's host page cache, so its writes never stall, and Figure 4's transfer
// is too short to settle on LIGHT. The checklist is pinned as text, not as a
// verdict. A change that means to move a number reruns with -update and
// commits the diff.
func TestHarnessGolden(t *testing.T) {
	const (
		seed = 7
		path = "testdata/harness.golden"
	)
	var sb strings.Builder
	section := func(name, text string) {
		fmt.Fprintf(&sb, "=== %s ===\n%s", name, text)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, e := range Paper {
		if e.Run == nil {
			continue
		}
		sections, err := e.Run(TableIIConfig{TotalBytes: 2e9, Runs: 2, Seed: seed})
		must(err)
		for _, s := range sections {
			section(s.Name, s.Text)
			if s.CSVName != "" {
				section(s.CSVName+".csv", s.CSV)
			}
		}
	}

	dm, err := DeciderMatrix(seed)
	must(err)
	section("decider_matrix", dm.Render())

	got := []byte(sb.String())
	if *update {
		must(os.MkdirAll("testdata", 0o755))
		must(os.WriteFile(path, got, 0o644))
		return
	}
	want, err := os.ReadFile(path)
	must(err)
	if !bytes.Equal(got, want) {
		t.Fatalf("the harness output no longer matches %s: rerun with -update and read `git diff`; commit it only if the change is meant", path)
	}
}
