package provmark

import (
	"fmt"
	"strings"
	"time"

	"provmark/internal/datalog"
	"provmark/internal/wire"
)

// ResultType selects what a report includes, mirroring the CLI's rb /
// rg / rh parameter.
type ResultType int

// Report flavours.
const (
	// BenchmarkOnly prints just the benchmark (target) graph.
	BenchmarkOnly ResultType = iota + 1
	// WithGeneralized adds the generalized fg and bg graphs.
	WithGeneralized
	// HTMLPage renders a minimal HTML page with all three graphs.
	HTMLPage
	// JSON renders the canonical wire encoding (one line, trailing
	// newline) — byte-identical to the cell payload provmarkd serves.
	JSON
)

// Render produces the textual, HTML or JSON report for a result in its
// versioned wire form (ToWire for a local run, or a decoded provmarkd
// stream cell), so a report generated locally and one generated from a
// remote stream agree byte for byte.
func Render(w *wire.Result, rt ResultType) string {
	var b strings.Builder
	switch rt {
	case JSON:
		// Encoding a schema-stamped wire value cannot fail: the value
		// contains only maps, slices and scalars.
		data, err := wire.EncodeResult(w)
		if err != nil {
			return ""
		}
		b.Write(data)
		b.WriteByte('\n')
	case HTMLPage:
		renderHTML(&b, w)
	case WithGeneralized:
		renderText(&b, w, true)
	default:
		renderText(&b, w, false)
	}
	return b.String()
}

// generalizedGraphs is the shared traversal order of the generalized
// graphs in a wire result, used by both the text and HTML renderers.
func generalizedGraphs(w *wire.Result) []struct {
	title string
	g     *wire.Graph
} {
	return []struct {
		title string
		g     *wire.Graph
	}{
		{"generalized foreground", w.FG},
		{"generalized background", w.BG},
	}
}

func renderText(b *strings.Builder, w *wire.Result, withGeneralized bool) {
	fmt.Fprintf(b, "benchmark %s under %s (%d trials)\n", w.Benchmark, w.Tool, w.Trials)
	if w.Empty {
		fmt.Fprintf(b, "result: EMPTY — %s\n", w.Reason)
	} else {
		fmt.Fprintf(b, "result: %s (embedding cost %d)\n", w.Target.Summary(), w.Cost)
		b.WriteString(indent(w.Target.String()))
		b.WriteString("datalog:\n")
		b.WriteString(indent(datalogText(w.Target)))
	}
	if withGeneralized {
		for _, sec := range generalizedGraphs(w) {
			fmt.Fprintf(b, "%s: %s\n", sec.title, sec.g.Summary())
			b.WriteString(indent(sec.g.String()))
		}
	}
	t := w.Times
	fmt.Fprintf(b, "stage times: record=%v transform=%v generalize=%v (classify=%v) compare=%v total=%v\n",
		time.Duration(t.RecordingNS), time.Duration(t.TransformationNS),
		time.Duration(t.GeneralizationNS), time.Duration(t.ClassificationNS),
		time.Duration(t.ComparisonNS), time.Duration(t.TotalNS))
}

func renderHTML(b *strings.Builder, w *wire.Result) {
	fmt.Fprintf(b, "<html><head><title>ProvMark: %s / %s</title></head><body>\n", w.Tool, w.Benchmark)
	fmt.Fprintf(b, "<h1>%s under %s</h1>\n", htmlEscape(w.Benchmark), htmlEscape(w.Tool))
	if w.Empty {
		fmt.Fprintf(b, "<p><b>Empty result:</b> %s</p>\n", htmlEscape(w.Reason))
	} else {
		fmt.Fprintf(b, "<h2>Benchmark graph (%s)</h2><pre>%s</pre>\n",
			w.Target.Summary(), htmlEscape(w.Target.String()))
	}
	for _, sec := range generalizedGraphs(w) {
		fmt.Fprintf(b, "<h2>%s (%s)</h2><pre>%s</pre>\n",
			titleCase(sec.title), sec.g.Summary(), htmlEscape(sec.g.String()))
	}
	b.WriteString("</body></html>\n")
}

// datalogText renders the Datalog view of a wire graph. The datalog
// printer operates on the property-graph model, so the wire graph is
// materialized first; wire graphs decoded by the strict decoder (and
// all graphs produced by ToWire) build cleanly.
func datalogText(w *wire.Graph) string {
	g, err := w.Build()
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	return datalog.Print(g, "result")
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "    " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

func htmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
