package bench

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/datalog"
	"provmark/internal/graph"
	"provmark/internal/provmark"
)

// TestNormalizeOutputsPinned pins datalog.Normalize byte for byte: one
// sha256 of datalog.Print(datalog.Normalize(g), "base") per graph, over
// the foreground, background and target of every TestGridOutputsPinned
// cell and over a seeded corpus of random graphs. The corpus draws
// labels, property keys and property values from an alphabet that
// contains the '|', ';' and '=' separators and strings that are
// prefixes of each other, so any change to the order Normalize assigns
// identifiers in shows up here. Regenerate with
//
//	go test ./internal/bench -run TestNormalizeOutputsPinned -update
func TestNormalizeOutputsPinned(t *testing.T) {
	names := benchprog.Names()
	progs := make([]benchprog.Program, 0, len(names))
	for _, name := range names {
		prog, ok := benchprog.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %q", name)
		}
		progs = append(progs, prog)
	}
	m := provmark.Matrix{
		Tools:      Tools,
		Capture:    capture.Options{Fast: true},
		Benchmarks: progs,
		Scenarios:  []benchprog.Scenario{benchprog.ScaleScenario(8), benchprog.ScaleScenario(16), benchprog.ScaleScenario(32)},
	}
	cells, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	line := func(name string, g *graph.Graph) {
		if g == nil {
			fmt.Fprintf(&b, "%s <nil>\n", name)
			return
		}
		fmt.Fprintf(&b, "%s %x\n", name, sha256.Sum256([]byte(datalog.Print(datalog.Normalize(g), "base"))))
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("%s/%s: %v", c.Tool, c.Benchmark, c.Err)
		}
		prefix := c.Tool + "/" + c.Benchmark
		line(prefix+"/fg", c.Result.FG)
		line(prefix+"/bg", c.Result.BG)
		line(prefix+"/target", c.Result.Target)
	}
	rng := rand.New(rand.NewPCG(25, 1))
	for i := 0; i < 256; i++ {
		line(fmt.Sprintf("random/%03d", i), randomSeparatorGraph(rng))
	}

	path := filepath.Join("testdata", "normalize_outputs.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d graphs, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("graph %d changed:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// separatorWords are the labels, keys and values of the random corpus:
// Normalize's sort keys join fields with '|', ';' and '=', and these
// words contain those bytes and are prefixes of one another.
var separatorWords = []string{"", "a", "a|", "a|b", "ab", "a;", "a;b", "a=", "a=b", "|", ";", "=", "b", "a|b;c=d"}

// randomSeparatorGraph draws a graph of 1–14 nodes whose few labels
// make WL colours tie often, so the label and property parts of the
// node key and every part of the edge key decide the order.
func randomSeparatorGraph(rng *rand.Rand) *graph.Graph {
	word := func(k int) string { return separatorWords[rng.IntN(min(k, len(separatorWords)))] }
	props := func() graph.Properties {
		p := graph.Properties{}
		for n := rng.IntN(3); n > 0; n-- {
			p[word(len(separatorWords))] = word(len(separatorWords))
		}
		return p
	}
	g := graph.New()
	labels := 1 + rng.IntN(len(separatorWords))
	n := 1 + rng.IntN(14)
	ids := make([]graph.ElemID, n)
	for i := range ids {
		ids[i] = g.AddNode(word(labels), props())
	}
	for e := rng.IntN(2 * n); e > 0; e-- {
		if _, err := g.AddEdge(ids[rng.IntN(n)], ids[rng.IntN(n)], word(labels), props()); err != nil {
			panic(err) // endpoints exist by construction
		}
	}
	return g
}
