package match_test

// Matcher ablations on recorded CamFlow graphs of the scalability
// sweep, comparing the frozen oracles at scale4. The production entry
// points' growth benchmark is BenchmarkMatchKernelGrowth.
//
//	go test ./internal/match -run '^$' -bench 'MatchKernel|AblationMatcher'

import (
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/graph"
	"provmark/internal/match"
)

// scalePair produces two generalizable CamFlow foreground graphs of the
// scale4 benchmark, the ablation workload for the matcher engines.
func scalePair(b *testing.B) (*graph.Graph, *graph.Graph) {
	b.Helper()
	g := match.CamflowTrials(b, benchprog.ScaleProgram(4), benchprog.Foreground, 2)
	return g[0], g[1]
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
