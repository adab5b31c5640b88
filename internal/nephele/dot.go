package nephele

import (
	"fmt"
	"strings"
)

// DOT renders the job graph in Graphviz DOT format: vertices annotated with
// their parallelism, edges with channel type and compression mode, in the
// order they were connected. Pipe the output through `dot -Tsvg` to
// visualize an execution plan.
func (g *JobGraph) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", g.name)
	sb.WriteString("  rankdir=LR;\n  node [shape=box];\n")
	for _, v := range g.vertices {
		fmt.Fprintf(&sb, "  %q [label=\"%s\\nx%d\"];\n", v.name, v.name, v.parallelism)
	}
	for _, e := range g.edges {
		label := e.spec.Type.String()
		switch e.spec.Compression {
		case CompressionStatic:
			label += fmt.Sprintf("\\nstatic L%d", e.spec.StaticLevel)
		case CompressionAdaptive:
			label += "\\nadaptive"
		}
		style := "solid"
		if e.spec.Type == File {
			style = "dashed"
		}
		fmt.Fprintf(&sb, "  %q -> %q [label=\"%s\", style=%s];\n", e.from.name, e.to.name, label, style)
	}
	sb.WriteString("}\n")
	return sb.String()
}
