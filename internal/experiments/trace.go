package experiments

import (
	"fmt"
	"strings"

	"adaptio/internal/cloudsim"
)

// Trace is one adaptive transfer's decision windows as the simulator
// delivered them: the time series behind Figures 4–6.
type Trace []cloudsim.WindowSample

// traceWidth is the number of columns a rendered trace spans.
const traceWidth = 100

// Duration returns the time of the last window.
func (t Trace) Duration() float64 {
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1].Time
}

// LevelOccupancy returns the fraction of windows spent at each level of the
// paper's ladder.
func (t Trace) LevelOccupancy() []float64 {
	occ := make([]float64, levels)
	if len(t) == 0 {
		return occ
	}
	for _, w := range t {
		if w.Level >= 0 && w.Level < levels {
			occ[w.Level]++
		}
	}
	for i := range occ {
		occ[i] /= float64(len(t))
	}
	return occ
}

// Switches returns the number of level changes in the series.
func (t Trace) Switches() int {
	return t.SwitchesIn(0, t.Duration()+1)
}

// SwitchesIn counts level changes within [from, to) seconds; Figure 4's
// backoff claim is that this count decays over consecutive intervals.
func (t Trace) SwitchesIn(from, to float64) int {
	n := 0
	for i := 1; i < len(t); i++ {
		if t[i].Time >= from && t[i].Time < to && t[i].Level != t[i-1].Level {
			n++
		}
	}
	return n
}

// sparkRunes are the eight block heights of a text sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values into width buckets, scaling to the series max.
func sparkline(values []float64, width int) string {
	buckets := resample(values, width)
	top := 0.0
	for _, v := range buckets {
		top = max(top, v)
	}
	var sb strings.Builder
	for _, v := range buckets {
		idx := 0
		if top > 0 {
			idx = int(v / top * float64(len(sparkRunes)-1))
		}
		sb.WriteRune(sparkRunes[min(max(idx, 0), len(sparkRunes)-1)])
	}
	return sb.String()
}

// resample averages values into width buckets.
func resample(values []float64, width int) []float64 {
	width = min(width, len(values))
	out := make([]float64, width)
	for b := range out {
		lo := b * len(values) / width
		hi := max((b+1)*len(values)/width, lo+1)
		sum := 0.0
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[b] = sum / float64(hi-lo)
	}
	return out
}

// Render produces the text figure: throughput and CPU sparklines, the level
// timeline of the step plot at the bottom of Figures 4–6, and summary
// statistics.
func (t Trace) Render(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s ===\n", title)
	if len(t) == 0 {
		sb.WriteString("(no samples)\n")
		return sb.String()
	}
	app := make([]float64, len(t))
	wire := make([]float64, len(t))
	cpu := make([]float64, len(t))
	level := make([]float64, len(t))
	maxApp, maxWire, maxCPU := 0.0, 0.0, 0.0
	for i, w := range t {
		app[i], wire[i], cpu[i], level[i] = w.AppMBps, w.WireMBps, w.GuestCPU.Total(), float64(w.Level)
		maxApp, maxWire, maxCPU = max(maxApp, app[i]), max(maxWire, wire[i]), max(maxCPU, cpu[i])
	}
	fmt.Fprintf(&sb, "app  MB/s |%s| peak %.0f\n", sparkline(app, traceWidth), maxApp)
	fmt.Fprintf(&sb, "wire MB/s |%s| peak %.0f\n", sparkline(wire, traceWidth), maxWire)
	fmt.Fprintf(&sb, "cpu  %%    |%s| peak %.0f\n", sparkline(cpu, traceWidth), maxCPU)
	buckets := resample(level, traceWidth)
	for lvl := levels - 1; lvl >= 0; lvl-- {
		fmt.Fprintf(&sb, "%-8s|", LevelNames[lvl])
		for _, v := range buckets {
			if int(v+0.5) == lvl {
				sb.WriteByte('#')
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteString("|\n")
	}
	fmt.Fprintf(&sb, "duration %.0f s, %d windows, %d level switches, occupancy",
		t.Duration(), len(t), t.Switches())
	for lvl, f := range t.LevelOccupancy() {
		fmt.Fprintf(&sb, " %s=%.0f%%", LevelNames[lvl], f*100)
	}
	sb.WriteString("\n")
	return sb.String()
}
