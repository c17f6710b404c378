package match

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"provmark/internal/asp"
	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"

	_ "provmark/internal/capture/camflow"
)

// CamflowTrials records and transforms n CamFlow trials of one variant
// of prog. It is exported for the package's external benchmarks.
func CamflowTrials(tb testing.TB, prog benchprog.Program, v benchprog.Variant, n int) []*graph.Graph {
	tb.Helper()
	rec, err := capture.OpenContext("camflow", capture.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	var graphs []*graph.Graph
	for trial := 0; trial < n; trial++ {
		nat, err := rec.Record(context.Background(), prog, v, trial)
		if err != nil {
			tb.Fatal(err)
		}
		g, err := rec.Transform(nat)
		if err != nil {
			tb.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	return graphs
}

// TestGeneralizeSearchVisitsOnePath: on the generalization problems of
// the CamFlow scalability sweep, SolveMin reaches its first solution
// along one path of at most one node per group plus the leaf, and the
// bound then cuts every sibling left on that path without entering it.
func TestGeneralizeSearchVisitsOnePath(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		g := CamflowTrials(t, benchprog.ScaleProgram(n), benchprog.Foreground, 2)
		enc, err := encodeIso(g[0], g[1], propDiffWeight)
		if err != nil {
			t.Fatalf("scale%d: %v", n, err)
		}
		sol, err := enc.problem.SolveMin()
		if err != nil {
			t.Fatalf("scale%d: %v", n, err)
		}
		groups := enc.problem.NumGroups()
		t.Logf("scale%d: %d groups, %d atoms, %d nodes, cost %d", n, groups, enc.problem.NumAtoms(), sol.Nodes, sol.Cost)
		if sol.Nodes > groups+1 {
			t.Errorf("scale%d: SolveMin visited %d nodes, want at most %d (groups + 1)", n, sol.Nodes, groups+1)
		}
	}
}

// BenchmarkMatchKernelGrowth measures the three matching-kernel entry
// points on CamFlow graphs of the scalability sweep, n = 32 to 256:
// similarity and min-cost generalization of two foreground trials, and
// the embedding of a background trial into the first (comparison).
// solves/op counts the ASP searches an entry point starts, and nodes/op
// the search nodes they visit, taken from one untimed solve of the
// problem the entry point grounds (the search is deterministic).
func BenchmarkMatchKernelGrowth(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		prog := benchprog.ScaleProgram(n)
		fg := CamflowTrials(b, prog, benchprog.Foreground, 2)
		bg := CamflowTrials(b, prog, benchprog.Background, 1)[0]
		cases := []struct {
			name  string
			step  func() error
			solve func() (*asp.Solution, error) // the search step runs, if any
		}{
			{"similar", func() error {
				if _, ok := Similar(fg[0], fg[1]); !ok {
					return errors.New("trial graphs should be similar")
				}
				return nil
			}, func() (*asp.Solution, error) {
				enc, err := encodeIso(fg[0], fg[1], nil)
				if err != nil {
					return nil, err
				}
				return enc.problem.Solve()
			}},
			{"generalize", func() error {
				_, _, err := GeneralizePair(fg[0], fg[1])
				return err
			}, func() (*asp.Solution, error) {
				enc, err := encodeIso(fg[0], fg[1], propDiffWeight)
				if err != nil {
					return nil, err
				}
				return enc.problem.SolveMin()
			}},
			{"embed", func() error {
				_, _, err := SubgraphEmbed(bg, fg[0])
				return err
			}, func() (*asp.Solution, error) {
				enc, err := encodeSubgraph(bg, fg[0])
				if err != nil {
					return nil, err
				}
				return enc.problem.SolveMin()
			}},
		}
		for _, c := range cases {
			b.Run(fmt.Sprintf("scale%d/%s", n, c.name), func(b *testing.B) {
				b.ReportAllocs()
				start := asp.SolveInvocations()
				for i := 0; i < b.N; i++ {
					if err := c.step(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				solves := float64(asp.SolveInvocations()-start) / float64(b.N)
				nodes := 0.0
				if solves > 0 {
					sol, err := c.solve()
					if err != nil {
						b.Fatal(err)
					}
					nodes = solves * float64(sol.Nodes)
				}
				b.ReportMetric(solves, "solves/op")
				b.ReportMetric(nodes, "nodes/op")
			})
		}
	}
}
