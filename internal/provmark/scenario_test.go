package provmark_test

import (
	"context"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"
	"provmark/internal/provmark"
)

// customScenario is an inline program not present in the registry.
func customScenario() benchprog.Scenario {
	return benchprog.Scenario{
		Name: "chmod-then-unlink",
		Desc: "restrict a file's mode, then remove it",
		Setup: []benchprog.SetupOp{
			{Kind: "file", Path: "/stage/victim.txt", UID: 1000, Mode: 0o644},
		},
		Steps: []benchprog.Instr{
			{Op: "chmod", Path: "/stage/victim.txt", Mode: 0o600, Target: true},
			{Op: "unlink", Path: "/stage/victim.txt", Target: true},
		},
	}
}

// TestRunnerRunScenario: an inline scenario runs the full pipeline and
// produces the same result as its pre-compiled program.
func TestRunnerRunScenario(t *testing.T) {
	rec, err := capture.Open("spade", capture.Options{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	runner := provmark.New(rec, provmark.WithTrials(2))
	res, err := runner.RunScenario(context.Background(), customScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty || res.Target == nil {
		t.Fatalf("inline scenario produced an empty benchmark graph: %s", res.Reason)
	}
	prog, err := customScenario().Compile()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runner.RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if graph.ShapeFingerprint(res.Target) != graph.ShapeFingerprint(direct.Target) {
		t.Error("RunScenario and Run(Compile()) disagree")
	}
	if _, err := runner.RunScenario(context.Background(), benchprog.Scenario{Name: "broken"}); err == nil {
		t.Error("invalid scenario ran")
	}
}

// TestMatrixScenarios: scenario rows join benchmark rows in the grid.
func TestMatrixScenarios(t *testing.T) {
	m := provmark.Matrix{
		Tools:      []string{"spade", "opus"},
		Capture:    capture.Options{Fast: true},
		Benchmarks: testPrograms(t, "creat"),
		Scenarios:  []benchprog.Scenario{customScenario()},
		Workers:    2,
		Pipeline:   []provmark.Option{provmark.WithTrials(2)},
	}
	results, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d cells, want 4 (2 tools × (1 benchmark + 1 scenario))", len(results))
	}
	perTool := map[string]map[string]bool{}
	for _, cell := range results {
		if cell.Err != nil {
			t.Errorf("%s/%s: %v", cell.Tool, cell.Benchmark, cell.Err)
			continue
		}
		if perTool[cell.Tool] == nil {
			perTool[cell.Tool] = map[string]bool{}
		}
		perTool[cell.Tool][cell.Benchmark] = true
	}
	for _, tool := range []string{"spade", "opus"} {
		if !perTool[tool]["creat"] || !perTool[tool]["chmod-then-unlink"] {
			t.Errorf("%s: missing rows: %v", tool, perTool[tool])
		}
	}

	// An invalid scenario fails matrix setup, before any cell runs.
	bad := m
	bad.Scenarios = []benchprog.Scenario{{Name: "nope"}}
	if _, err := bad.Stream(context.Background()); err == nil {
		t.Error("matrix accepted an invalid scenario")
	}
}
