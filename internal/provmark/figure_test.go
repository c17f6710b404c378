package provmark

import (
	"strings"
	"testing"
	"time"

	"provmark/internal/graph"
)

func figureFixture() *Result {
	g := graph.New()
	p := g.AddNode("Process", graph.Properties{"pid": "42", "name": "bench"})
	a := g.AddNode("Artifact", graph.Properties{"path": "/stage/x"})
	d := g.AddNode("dummy", graph.Properties{"stands_for": "Process"})
	if _, err := g.AddEdge(p, a, "Used", graph.Properties{"operation": "open"}); err != nil {
		panic(err)
	}
	if _, err := g.AddEdge(a, d, "WasGeneratedBy", nil); err != nil {
		panic(err)
	}
	return &Result{Benchmark: "open", Tool: "spade", Target: g, FG: g, BG: graph.New()}
}

func TestRenderFigureDOTStyling(t *testing.T) {
	out := RenderFigureDOT(ToWire(figureFixture()))
	for _, want := range []string{
		"digraph spade_open",
		`shape="box" fillcolor="lightblue"`,       // process
		`shape="ellipse" fillcolor="lightyellow"`, // artifact
		`shape="ellipse" fillcolor="palegreen"`,   // dummy
		`label="Used\nopen"`,
		"path: /stage/x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure missing %q:\n%s", want, out)
		}
	}
}

func TestRenderFigureDOTEmpty(t *testing.T) {
	res := &Result{Benchmark: "dup", Tool: "spade", Empty: true, Reason: ReasonNoNewStructure}
	out := RenderFigureDOT(ToWire(res))
	if !strings.Contains(out, "empty:") {
		t.Errorf("empty figure:\n%s", out)
	}
}

func TestTimingLogLineFormat(t *testing.T) {
	res := figureFixture()
	res.Times = StageTimes{
		Recording:      1500 * time.Millisecond,
		Transformation: 250 * time.Millisecond,
		Generalization: 30 * time.Millisecond,
		Comparison:     4 * time.Millisecond,
	}
	line := TimingLogLine(ToWire(res))
	if line != "spade,open,1.500000,0.250000,0.030000,0.004000" {
		t.Errorf("line = %q", line)
	}
}
