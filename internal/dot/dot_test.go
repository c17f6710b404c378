package dot

import (
	"strings"
	"testing"

	"provmark/internal/graph"
)

func sample(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	p := g.AddNode("Process", graph.Properties{"pid": "42", "name": "bench"})
	a := g.AddNode("Artifact", graph.Properties{"path": "/tmp/x"})
	if _, err := g.AddEdge(p, a, "Used", graph.Properties{"operation": "open"}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWriteEmitsDigraph(t *testing.T) {
	out := WriteString(sample(t), "test graph!")
	for _, want := range []string{
		"digraph test_graph_",
		`label="type:Process\nname:bench\npid:42"`,
		`shape="box"`,
		`shape="ellipse"`,
		`"n1" -> "n2"`,
		`type:Used\noperation:open`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	g := sample(t)
	h, err := ParseString(WriteString(g, "g"))
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(g, h) {
		t.Errorf("round trip changed graph:\n%s\nvs\n%s", g, h)
	}
}

func TestRoundTripSpecialCharacters(t *testing.T) {
	g := graph.New()
	a := g.AddNode("Process", graph.Properties{
		"cmd":  `sh -c "echo hi"`,
		"path": `C:\temp\x`,
	})
	b := g.AddNode("Artifact", nil)
	if _, err := g.AddEdge(a, b, "Used", nil); err != nil {
		t.Fatal(err)
	}
	h, err := ParseString(WriteString(g, "g"))
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(g, h) {
		t.Errorf("special chars round trip:\n%s\nvs\n%s", g, h)
	}
}

func TestParseEdgeBeforeNode(t *testing.T) {
	// Edge lines may precede their node declarations.
	input := `digraph g {
"a" -> "b" [label="type:E"];
"a" [label="type:X\nk:v"];
"b" [label="type:Y"];
}`
	g, err := ParseString(input)
	if err != nil {
		t.Fatal(err)
	}
	if g.Node("a").Label != "X" || g.Node("a").Props["k"] != "v" {
		t.Errorf("late node fill-in failed: %+v", g.Node("a"))
	}
	if g.Node("b").Label != "Y" || g.NumEdges() != 1 {
		t.Error("graph incomplete")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`"a" [label="x]`,       // unterminated
		`"a" label="type:X"`,   // no attribute block
		`a -> b [label="t:E"]`, // unquoted ids
	}
	for _, input := range cases {
		if _, err := ParseString("digraph g {\n" + input + "\n}"); err == nil {
			t.Errorf("accepted %q", input)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	out := WriteString(graph.New(), "")
	if !strings.Contains(out, "digraph g {") {
		t.Errorf("empty name not defaulted:\n%s", out)
	}
}

func TestParseDecodesEscapes(t *testing.T) {
	g := graph.New()
	a := g.AddNode("Process", graph.Properties{"tab": "a\tb", "ctl": "x\x01y", "bad": "\xff\u2028"})
	if _, err := g.AddEdge(a, a, "Used", graph.Properties{"quote": `"\`}); err != nil {
		t.Fatal(err)
	}
	h, err := ParseString(WriteString(g, "g"))
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(g, h) {
		t.Errorf("escapes lost:\n%s\nvs\n%s", g, h)
	}
	for _, bad := range []string{`"a\q"`, `"a\x1"`, `"\u12"`} {
		if _, err := ParseString("digraph g {\n" + bad + ` [label="type:X"];` + "\n}"); err == nil {
			t.Errorf("accepted invalid escape in %s", bad)
		}
	}
}
