package nephele

import (
	"fmt"
	"sort"
	"strings"
)

// Render formats the job statistics as a human-readable report: one row per
// edge with volume and compression accounting, one row per vertex with
// runtime, matching what a Nephele job manager would log after execution.
func (s *JobStats) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "job finished in %v\n", s.Duration.Round(1e6))

	edgeLabels := make([]string, 0, len(s.Edges))
	for label := range s.Edges {
		edgeLabels = append(edgeLabels, label)
	}
	sort.Strings(edgeLabels)
	if len(edgeLabels) > 0 {
		fmt.Fprintf(&sb, "%-28s %10s %12s %12s %7s %8s\n",
			"channel", "records", "app bytes", "wire bytes", "ratio", "switches")
		for _, label := range edgeLabels {
			es := s.Edges[label]
			ratio := 1.0
			if es.AppBytes > 0 {
				ratio = float64(es.WireBytes) / float64(es.AppBytes)
			}
			fmt.Fprintf(&sb, "%-28s %10d %12d %12d %7.3f %8d\n",
				label, es.Records, es.AppBytes, es.WireBytes, ratio, es.LevelSwitches)
		}
	}

	vertexNames := make([]string, 0, len(s.Vertices))
	for name := range s.Vertices {
		vertexNames = append(vertexNames, name)
	}
	sort.Strings(vertexNames)
	if len(vertexNames) > 0 {
		fmt.Fprintf(&sb, "%-28s %9s %12s %12s\n", "vertex", "subtasks", "busiest", "total wall")
		for _, name := range vertexNames {
			vs := s.Vertices[name]
			fmt.Fprintf(&sb, "%-28s %9d %12v %12v\n",
				name, vs.Subtasks, vs.Busiest.Round(1e6), vs.Total.Round(1e6))
		}
	}
	return sb.String()
}
