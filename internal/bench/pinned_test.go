package bench

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"
	"provmark/internal/provmark"
)

var update = flag.Bool("update", false, "rewrite the testdata/*_outputs.golden files")

// TestGridOutputsPinned pins every output of the Fast Table 2 grid and
// the 8/16/32 scalability sweep: one sha256 per cell over the
// generalized foreground and background, the target graph, the
// embedding cost and the empty-result reason. Any change to matching,
// generalization or comparison that alters a single property of a
// single cell shows up here. Regenerate with
//
//	go test ./internal/bench -run TestGridOutputsPinned -update
func TestGridOutputsPinned(t *testing.T) {
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
	checkCellsPinned(t, m, len(Tools)*(len(progs)+3), "grid_outputs.golden")
}

// TestScaleGrowthOutputsPinned extends the pin to the two largest
// graphs of the scalability sweep, ScaleScenario(64) and (128), on
// every tool. Regenerate with
//
//	go test ./internal/bench -run TestScaleGrowthOutputsPinned -update
func TestScaleGrowthOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("records and matches the scale64 and scale128 graphs")
	}
	m := provmark.Matrix{
		Tools:     Tools,
		Capture:   capture.Options{Fast: true},
		Scenarios: []benchprog.Scenario{benchprog.ScaleScenario(64), benchprog.ScaleScenario(128)},
	}
	checkCellsPinned(t, m, len(Tools)*2, "scale_growth_outputs.golden")
}

// checkCellsPinned runs m and compares one cellDigest line per cell,
// in matrix order, with testdata/golden (rewritten under -update).
func checkCellsPinned(t *testing.T, m provmark.Matrix, wantCells int, golden string) {
	t.Helper()
	cells, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("%s/%s: %v", c.Tool, c.Benchmark, c.Err)
		}
		fmt.Fprintf(&b, "%s/%s %x\n", c.Tool, c.Benchmark, cellDigest(c.Result))
	}
	if len(cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(cells), wantCells)
	}
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("%d cells, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d changed:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// cellDigest hashes the parts of a result the matching kernel decides.
func cellDigest(res *provmark.Result) [32]byte {
	h := sha256.New()
	for _, g := range []*graph.Graph{res.FG, res.BG, res.Target} {
		if g == nil {
			fmt.Fprint(h, "<nil>\n")
			continue
		}
		fmt.Fprint(h, g.String())
	}
	fmt.Fprintf(h, "cost=%d\nreason=%q\n", res.Cost, res.Reason)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}
