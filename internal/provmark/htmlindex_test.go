package provmark

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"provmark/internal/graph"
)

func TestIndexWriterProducesLinkedPages(t *testing.T) {
	dir := t.TempDir()
	w, err := NewIndexWriter(dir, "spade")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	g.AddNode("Artifact", graph.Properties{"path": "/x"})
	if err := w.Add(ToWire(&Result{Benchmark: "open", Tool: "spade", Target: g, FG: g, BG: graph.New()})); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(ToWire(&Result{Benchmark: "dup", Tool: "spade", Empty: true,
		Reason: ReasonNoNewStructure, FG: g, BG: g})); err != nil {
		t.Fatal(err)
	}
	path, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	index := string(data)
	for _, want := range []string{"spade_open.html", "spade_dup.html", "1n/0e/1p", "empty"} {
		if !strings.Contains(index, want) {
			t.Errorf("index missing %q", want)
		}
	}
	page, err := os.ReadFile(filepath.Join(dir, "spade_open.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "Benchmark graph") {
		t.Error("benchmark page incomplete")
	}
}
