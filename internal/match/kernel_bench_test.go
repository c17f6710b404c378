package match_test

// Matching-kernel benchmarks on recorded CamFlow graphs of the
// scalability sweep: the three production entry points at scale32, and
// the matcher ablations that compare the frozen oracles at scale4.
//
//	go test ./internal/match -run '^$' -bench 'MatchKernel|AblationMatcher'

import (
	"context"
	"errors"
	"testing"

	"provmark/internal/asp"
	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"
	"provmark/internal/match"

	_ "provmark/internal/capture/camflow"
)

// scalePair produces two generalizable CamFlow foreground graphs of the
// scale4 benchmark, the ablation workload for the matcher engines.
func scalePair(b *testing.B) (*graph.Graph, *graph.Graph) {
	b.Helper()
	g := camflowTrials(b, benchprog.ScaleProgram(4), benchprog.Foreground, 2)
	return g[0], g[1]
}

// camflowTrials records and transforms n CamFlow trials of one variant
// of prog.
func camflowTrials(b *testing.B, prog benchprog.Program, v benchprog.Variant, n int) []*graph.Graph {
	b.Helper()
	rec, err := capture.OpenContext("camflow", capture.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var graphs []*graph.Graph
	for trial := 0; trial < n; trial++ {
		nat, err := rec.Record(context.Background(), prog, v, trial)
		if err != nil {
			b.Fatal(err)
		}
		g, err := rec.Transform(nat)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	return graphs
}

// BenchmarkMatchKernelScale32 measures the three matching-kernel entry
// points on the largest graphs of the scalability sweep: two CamFlow
// scale32 foreground trials (similarity and min-cost generalization)
// and a background trial embedded into the first of them (comparison).
// solves/op counts the ASP searches each entry point starts.
func BenchmarkMatchKernelScale32(b *testing.B) {
	prog := benchprog.ScaleProgram(32)
	fg := camflowTrials(b, prog, benchprog.Foreground, 2)
	bg := camflowTrials(b, prog, benchprog.Background, 1)[0]
	run := func(b *testing.B, step func() error) {
		b.ReportAllocs()
		start := asp.SolveInvocations()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := step(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(asp.SolveInvocations()-start)/float64(b.N), "solves/op")
	}
	b.Run("similar", func(b *testing.B) {
		run(b, func() error {
			if _, ok := match.Similar(fg[0], fg[1]); !ok {
				return errors.New("scale32 trial graphs should be similar")
			}
			return nil
		})
	})
	b.Run("generalize", func(b *testing.B) {
		run(b, func() error {
			_, _, err := match.GeneralizePair(fg[0], fg[1])
			return err
		})
	})
	b.Run("embed", func(b *testing.B) {
		run(b, func() error {
			_, _, err := match.SubgraphEmbed(bg, fg[0])
			return err
		})
	})
}

// BenchmarkAblationMatcherASP measures similarity checking via the
// ASP-encoded solver path alone (the SimilarASP oracle: no fingerprint
// filter, no forced-mapping shortcut).
func BenchmarkAblationMatcherASP(b *testing.B) {
	g1, g2 := scalePair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := match.SimilarASP(g1, g2); !ok {
			b.Fatal("scale4 trial graphs should be similar")
		}
	}
}

// BenchmarkAblationMatcherDirect measures the same check via the
// hand-rolled VF2-style backtracking engine.
func BenchmarkAblationMatcherDirect(b *testing.B) {
	g1, g2 := scalePair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := match.SimilarDirect(g1, g2); !ok {
			b.Fatal("scale4 trial graphs should be similar")
		}
	}
}
