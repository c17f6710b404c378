package dot

import (
	"strings"
	"testing"

	"provmark/internal/graph"
)

// FuzzDOTRoundTrip checks that ParseString(WriteString(g)) equals g for
// every graph the label format can carry: values and labels without a
// newline, property keys without a colon or a newline, and no property
// named "type". Identifiers are unrestricted. The seed corpus under
// testdata/fuzz includes the tab and control-byte values that older
// parsers read back without their escapes.
func FuzzDOTRoundTrip(f *testing.F) {
	f.Add("n1", "Process", "cmd", `sh -c "echo hi"`)
	f.Add("a b", "Artifact", "path", `C:\temp\x`)
	f.Fuzz(func(t *testing.T, id, label, key, value string) {
		if strings.Contains(label+value, "\n") || strings.ContainsAny(key, ":\n") || key == "type" {
			t.Skip()
		}
		g := graph.New()
		if err := g.InsertNode(graph.ElemID(id), label, graph.Properties{key: value}); err != nil {
			t.Fatal(err)
		}
		other := g.AddNode(value, graph.Properties{"label": label, key + "2": value})
		if _, err := g.AddEdge(graph.ElemID(id), other, label, graph.Properties{key: value}); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddEdge(other, other, value, nil); err != nil {
			t.Fatal(err)
		}
		text := WriteString(g, id)
		h, err := ParseString(text)
		if err != nil {
			t.Fatalf("parse of written graph failed: %v\n%s", err, text)
		}
		if !graph.Equal(g, h) || g.String() != h.String() {
			t.Fatalf("round trip changed the graph:\nbefore:\n%s\nafter:\n%s\nwritten:\n%s", g, h, text)
		}
	})
}
