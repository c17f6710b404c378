package provmark

import (
	"fmt"
	"strings"

	"provmark/internal/wire"
)

// RenderFigureDOT renders a benchmark result graph in the styling of
// the paper's figures: blue rectangles for processes/activities,
// yellow ovals for artifacts/entities and other resources, and green
// (dummy) ovals for pre-existing graph parts retained by the
// comparison stage. The output is self-contained Graphviz DOT suitable
// for dot -Tsvg.
func RenderFigureDOT(w *wire.Result) string {
	var b strings.Builder
	name := sanitize(w.Tool + "_" + w.Benchmark)
	fmt.Fprintf(&b, "digraph %s {\n", name)
	fmt.Fprintf(&b, "  graph [rankdir=\"TB\" label=%q];\n", w.Tool+": "+w.Benchmark)
	fmt.Fprintf(&b, "  node [style=\"filled\"];\n")
	if w.Empty {
		fmt.Fprintf(&b, "  \"empty\" [label=%q shape=\"plaintext\" style=\"\"];\n", "empty: "+w.Reason)
		b.WriteString("}\n")
		return b.String()
	}
	if w.Target != nil {
		for _, n := range w.Target.Nodes {
			shape, color := styleFor(n)
			fmt.Fprintf(&b, "  %q [label=%q shape=%q fillcolor=%q];\n",
				n.ID, nodeCaption(n), shape, color)
		}
		for _, e := range w.Target.Edges {
			caption := e.Label
			if op := e.Props["operation"]; op != "" {
				caption += "\n" + op
			} else if op := e.Props["cf:type"]; op != "" {
				caption += "\n" + op
			}
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.Src, e.Tgt, caption)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// styleFor maps the three tools' vocabularies onto the paper's visual
// language.
func styleFor(n wire.Node) (shape, color string) {
	switch n.Label {
	case "Process", "activity", "SyscallEvent":
		return "box", "lightblue"
	case "dummy":
		return "ellipse", "palegreen"
	case "agent":
		return "house", "lightgrey"
	default: // Artifact, entity, Global, Local, Version, ...
		return "ellipse", "lightyellow"
	}
}

// nodeCaption picks the most informative identity line per node kind.
func nodeCaption(n wire.Node) string {
	parts := []string{n.Label}
	for _, key := range []string{"path", "cf:pathname", "name", "pid", "cf:pid", "call", "fd", "of", "prov:type", "stands_for"} {
		if v, ok := n.Props[key]; ok {
			parts = append(parts, key+": "+v)
		}
	}
	if len(parts) > 3 {
		parts = parts[:3]
	}
	return strings.Join(parts, "\n")
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			out = append(out, c)
		} else {
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "g"
	}
	return string(out)
}

// TimingLogLine renders one /tmp/time.log record in the format the
// paper's appendix documents (A.6.4): tool, syscall, then the four
// per-subsystem durations in seconds as floating-point numbers, comma
// separated. (Classification is a sub-stage of generalization and is
// already contained in the third figure.)
func TimingLogLine(w *wire.Result) string {
	t := w.Times
	const nsPerSec = 1e9
	return fmt.Sprintf("%s,%s,%.6f,%.6f,%.6f,%.6f",
		w.Tool, w.Benchmark,
		float64(t.RecordingNS)/nsPerSec,
		float64(t.TransformationNS)/nsPerSec,
		float64(t.GeneralizationNS)/nsPerSec,
		float64(t.ComparisonNS)/nsPerSec)
}
