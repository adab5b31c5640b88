package experiments_test

import (
	"strings"
	"testing"

	"adaptio/internal/cloudsim"
	"adaptio/internal/experiments"
)

func TestEmptyTrace(t *testing.T) {
	var tr experiments.Trace
	if tr.Duration() != 0 || tr.Switches() != 0 {
		t.Fatal("empty trace has non-zero stats")
	}
	out := tr.Render("empty")
	if !strings.Contains(out, "no samples") {
		t.Fatalf("empty render: %q", out)
	}
	if occ := tr.LevelOccupancy(); len(occ) != len(experiments.LevelNames) {
		t.Fatalf("occupancy slots = %d", len(occ))
	}
}

func TestLevelOccupancyAndSwitches(t *testing.T) {
	tr := experiments.Trace{
		{Time: 1, Level: 0},
		{Time: 2, Level: 1},
		{Time: 3, Level: 1},
		{Time: 4, Level: 2},
	}
	occ := tr.LevelOccupancy()
	if occ[0] != 0.25 || occ[1] != 0.5 || occ[2] != 0.25 || occ[3] != 0 {
		t.Fatalf("occupancy = %v", occ)
	}
	if tr.Switches() != 2 {
		t.Fatalf("switches = %d", tr.Switches())
	}
	if tr.Duration() != 4 {
		t.Fatalf("duration = %v", tr.Duration())
	}
}

func TestSwitchesIn(t *testing.T) {
	tr := experiments.Trace{
		{Time: 1, Level: 0},
		{Time: 2, Level: 1}, // switch at t=2
		{Time: 10, Level: 1},
		{Time: 11, Level: 0}, // switch at t=11
	}
	if got := tr.SwitchesIn(0, 5); got != 1 {
		t.Fatalf("SwitchesIn(0,5) = %d", got)
	}
	if got := tr.SwitchesIn(5, 20); got != 1 {
		t.Fatalf("SwitchesIn(5,20) = %d", got)
	}
	if got := tr.SwitchesIn(3, 5); got != 0 {
		t.Fatalf("SwitchesIn(3,5) = %d", got)
	}
}

func TestRenderContainsAllParts(t *testing.T) {
	var tr experiments.Trace
	for i := 0; i < 300; i++ {
		lvl := 0
		if i%10 < 5 {
			lvl = 1
		}
		tr = append(tr, cloudsim.WindowSample{
			Time:     float64(i) * 2,
			Level:    lvl,
			AppMBps:  100 + float64(i),
			WireMBps: 50,
			GuestCPU: cloudsim.CPUBreakdown{USR: 80},
		})
	}
	out := tr.Render("Figure X")
	for _, want := range []string{"Figure X", "app  MB/s", "wire MB/s", "cpu  %", "NO", "LIGHT", "MEDIUM", "HEAVY", "level switches", "occupancy"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The level timeline rows must all have the same width.
	var widths []int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, "|") && !strings.Contains(line, "MB/s") && !strings.Contains(line, "cpu") {
			widths = append(widths, len(line))
		}
	}
	if len(widths) != len(experiments.LevelNames) {
		t.Fatalf("%d timeline rows, want one per level:\n%s", len(widths), out)
	}
	for i := 1; i < len(widths); i++ {
		if widths[i] != widths[0] {
			t.Fatalf("timeline rows have inconsistent widths: %v", widths)
		}
	}
}

func TestRenderShortSeries(t *testing.T) {
	tr := experiments.Trace{{Time: 1, Level: 0, AppMBps: 10}}
	if out := tr.Render("tiny"); !strings.Contains(out, "tiny") || !strings.Contains(out, "1 windows") {
		t.Fatalf("short series render broken:\n%s", out)
	}
}

func TestOutOfRangeLevelIgnoredInOccupancy(t *testing.T) {
	tr := experiments.Trace{{Level: 7}, {Level: 1}}
	if occ := tr.LevelOccupancy(); occ[1] != 0.5 {
		t.Fatalf("occupancy = %v", occ)
	}
}
