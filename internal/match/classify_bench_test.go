package match_test

// Micro-benchmarks for the similarity classification engine, reporting
// ASP solver invocations per classification alongside wall-clock time
// so the speedup over the seed linear scan is directly measurable:
//
//	go test ./internal/match -bench SimilarityClasses -benchtime 10x
//
// "engine" is the fingerprint-bucketing classifier; "seed" replicates
// the pre-engine decision pattern (linear scan, every fingerprint
// collision confirmed by the ASP solver). Corpora vary trial count and
// symmetry: symmetric shapes (interchangeable star leaves) deny the
// engine its forced-mapping shortcut and force within-bucket solves.

import (
	"fmt"
	"math/rand"
	"testing"

	"provmark/internal/asp"
	"provmark/internal/graph"
	"provmark/internal/provmark"
)

// symCorpus builds trials of star graphs (hub plus interchangeable
// leaves): classes differ by leaf count, members are permuted copies.
func symCorpus(b *testing.B, trials, classes int, seed int64) []*graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, 0, trials)
	for i := 0; i < trials; i++ {
		leaves := 3 + i%classes
		base := graph.New()
		hub := base.AddNode("hub", nil)
		for l := 0; l < leaves; l++ {
			leaf := base.AddNode("leaf", nil)
			if _, err := base.AddEdge(hub, leaf, "spoke", nil); err != nil {
				b.Fatal(err)
			}
		}
		out = append(out, permutedCopy(b, base, rng, fmt.Sprintf("t%d", i)))
	}
	return out
}

// asymCorpus builds permuted copies of distinct labelled chains (the
// classCorpus shape, parameterized).
func asymCorpus(b *testing.B, trials, classes int, seed int64) []*graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, 0, trials)
	for i := 0; i < trials; i++ {
		shape := i % classes
		base := graph.New()
		var prev graph.ElemID
		for p := 0; p <= shape+2; p++ {
			id := base.AddNode(fmt.Sprintf("s%dp%d", shape, p), nil)
			if p > 0 {
				if _, err := base.AddEdge(prev, id, "next", nil); err != nil {
					b.Fatal(err)
				}
			}
			prev = id
		}
		out = append(out, permutedCopy(b, base, rng, fmt.Sprintf("t%d", i)))
	}
	return out
}

func benchClassify(b *testing.B, corpus []*graph.Graph, classify func([]*graph.Graph) [][]int) {
	b.Helper()
	startSolves := asp.SolveInvocations()
	startPrints := graph.FingerprintComputations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if classes := classify(corpus); len(classes) == 0 {
			b.Fatal("empty classification")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(asp.SolveInvocations()-startSolves)/float64(b.N), "solves/op")
	b.ReportMetric(float64(graph.FingerprintComputations()-startPrints)/float64(b.N), "fingerprints/op")
}

// BenchmarkSimilarityClasses measures classification across trial
// counts and symmetry, engine vs seed path.
func BenchmarkSimilarityClasses(b *testing.B) {
	cases := []struct {
		name   string
		corpus func(*testing.B) []*graph.Graph
	}{
		{"asym/8x2", func(b *testing.B) []*graph.Graph { return asymCorpus(b, 8, 2, 1) }},
		{"asym/32x4", func(b *testing.B) []*graph.Graph { return asymCorpus(b, 32, 4, 2) }},
		{"sym/8x2", func(b *testing.B) []*graph.Graph { return symCorpus(b, 8, 2, 3) }},
		{"sym/32x4", func(b *testing.B) []*graph.Graph { return symCorpus(b, 32, 4, 4) }},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/engine", func(b *testing.B) {
			benchClassify(b, tc.corpus(b), provmark.NewClassifier().Classes)
		})
		b.Run(tc.name+"/seed", func(b *testing.B) {
			benchClassify(b, tc.corpus(b), seedSimilarityClasses)
		})
	}
}
