package provmark

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"provmark/internal/graph"
	"provmark/internal/wire"
)

func storeFixture(t *testing.T) (*Store, *graph.Graph) {
	t.Helper()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	a := g.AddNode("Process", graph.Properties{"pid": "1"})
	b := g.AddNode("Artifact", graph.Properties{"path": "/x"})
	if _, err := g.AddEdge(a, b, "Used", nil); err != nil {
		t.Fatal(err)
	}
	return store, g
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	store, g := storeFixture(t)
	if err := store.Save("spade", "open", g); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load("spade", "open")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != 2 || loaded.NumEdges() != 1 {
		t.Errorf("loaded %d nodes %d edges", loaded.NumNodes(), loaded.NumEdges())
	}
}

func TestStoreCheckNoBaseline(t *testing.T) {
	store, g := storeFixture(t)
	if _, err := store.Check("spade", "open", g); !errors.Is(err, ErrNoBaseline) {
		t.Errorf("want ErrNoBaseline, got %v", err)
	}
}

func TestStoreCheckDetectsStructureChange(t *testing.T) {
	store, g := storeFixture(t)
	if err := store.Save("spade", "open", g); err != nil {
		t.Fatal(err)
	}
	// Same structure: no regression, even with renamed ids.
	same := g.Clone()
	diff, err := store.Check("spade", "open", same)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Changed {
		t.Errorf("false positive: %s", diff.Detail)
	}
	// Extra node: regression.
	changed := g.Clone()
	changed.AddNode("Artifact", nil)
	diff, err = store.Check("spade", "open", changed)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Changed {
		t.Error("structure change not detected")
	}
}

// TestStoreEntries: each saved (tool, benchmark) pair is one
// <tool>__<benchmark>.dl file in the store's directory.
func TestStoreEntries(t *testing.T) {
	store, g := storeFixture(t)
	if err := store.Save("spade", "open", g); err != nil {
		t.Fatal(err)
	}
	if err := store.Save("camflow", "rename", g); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(store.dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	if got, want := strings.Join(names, " "), "camflow__rename.dl spade__open.dl"; got != want {
		t.Errorf("store entries = %q, want %q", got, want)
	}
}

// TestFileSinksRejectEscapingNames: the regression store and the HTML
// index refuse a tool or benchmark name that would place their output
// outside their directory, such as a remote stream cell named
// "../escape", and write nothing anywhere.
func TestFileSinksRejectEscapingNames(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b", "sink")
	index, err := NewIndexWriter(dir, "spade")
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{"../escape", "../../../escape", "x/y", `x\y`, ".", ".."}
	for _, name := range bad {
		cell, err := wire.DecodeMatrixResult([]byte(`{"schema":1,"index":0,"tool":"spade","benchmark":` + strconv.Quote(name) +
			`,"result":{"schema":1,"tool":"spade","benchmark":` + strconv.Quote(name) + `,"trials":2,"empty":false,"cost":0,` +
			`"times":{"recording_ns":1,"transformation_ns":1,"generalization_ns":1,"classification_ns":0,"comparison_ns":1,"total_ns":4},` +
			`"target":{"nodes":[{"id":"n1","label":"entity"}]}}}`))
		if err != nil {
			t.Fatal(err)
		}
		g, err := cell.Result.Target.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := index.Add(cell.Result); err == nil {
			t.Errorf("index accepted benchmark %q", name)
		}
		if err := store.Save("spade", cell.Benchmark, g); err == nil {
			t.Errorf("store saved benchmark %q", name)
		}
		if _, err := store.Check("spade", cell.Benchmark, g); err == nil || errors.Is(err, ErrNoBaseline) {
			t.Errorf("store check of benchmark %q = %v, want a name error", name, err)
		}
		if _, err := NewIndexWriter(dir, name); err == nil {
			t.Errorf("index accepted tool %q", name)
		}
		if err := store.Save(name, "open", g); err == nil {
			t.Errorf("store saved tool %q", name)
		}
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			t.Errorf("sink wrote %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRenderFlavours(t *testing.T) {
	g := graph.New()
	g.AddNode("Artifact", graph.Properties{"path": "/x"})
	res := &Result{
		Benchmark: "open",
		Tool:      "spade",
		Trials:    2,
		Target:    g,
		FG:        g,
		BG:        graph.New(),
	}
	rb := Render(ToWire(res), BenchmarkOnly)
	if !contains(rb, "benchmark open under spade") || !contains(rb, "nresult(") {
		t.Errorf("rb rendering:\n%s", rb)
	}
	rg := Render(ToWire(res), WithGeneralized)
	if !contains(rg, "generalized foreground") || !contains(rg, "generalized background") {
		t.Errorf("rg rendering:\n%s", rg)
	}
	rh := Render(ToWire(res), HTMLPage)
	if !contains(rh, "<html>") || !contains(rh, "Benchmark graph") {
		t.Errorf("rh rendering:\n%s", rh)
	}
	// Empty result rendering.
	empty := &Result{Benchmark: "dup", Tool: "spade", Empty: true,
		Reason: ReasonNoNewStructure, FG: g, BG: g}
	if !contains(Render(ToWire(empty), BenchmarkOnly), "EMPTY") {
		t.Error("empty rendering lacks marker")
	}
	if !contains(Render(ToWire(empty), HTMLPage), "Empty result") {
		t.Error("empty html rendering lacks marker")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
