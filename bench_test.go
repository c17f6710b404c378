// Package repro_test holds the top-level benchmark harness: one
// testing.B benchmark per table and figure of the paper, plus ablation
// benchmarks for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks whose paper counterpart depends on storage costs (the
// OPUS figures) use the full-cost suite; matrix-style benchmarks use
// the fast suite so an iteration stays in the hundreds of milliseconds.
// All multi-cell benchmarks execute through the provmark.Matrix runner
// (the suite's per-stage timings come from the pipeline's observer
// hooks, not ad-hoc plumbing).
package repro_test

import (
	"context"
	"testing"

	"provmark/internal/asp"
	"provmark/internal/bench"
	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"
	"provmark/internal/match"
	"provmark/internal/provmark"

	_ "provmark/internal/capture/camflow"
	_ "provmark/internal/capture/opus"
	_ "provmark/internal/capture/spade"
)

// BenchmarkTable2Validation regenerates the full 44x3 validation matrix
// (Table 2).
func BenchmarkTable2Validation(b *testing.B) {
	s := bench.NewSuite(true)
	for i := 0; i < b.N; i++ {
		res, err := s.RunTable2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Mismatches != 0 {
			b.Fatalf("%d cells disagree with the paper", res.Mismatches)
		}
	}
}

// BenchmarkTable3ExampleGraphs regenerates the example graph shapes
// (Table 3).
func BenchmarkTable3ExampleGraphs(b *testing.B) {
	s := bench.NewSuite(true)
	for i := 0; i < b.N; i++ {
		if _, err := s.RunTable3(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Rename regenerates the three rename representations
// (Figure 1).
func BenchmarkFig1Rename(b *testing.B) {
	s := bench.NewSuite(true)
	for i := 0; i < b.N; i++ {
		if _, err := s.RunFig1(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func timingBenchmark(b *testing.B, tool string, fast bool) {
	b.Helper()
	s := bench.NewSuite(fast)
	for i := 0; i < b.N; i++ {
		if _, err := s.RunTiming(context.Background(), tool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5SpadeStages regenerates the SPADE per-stage timing runs
// (Figure 5).
func BenchmarkFig5SpadeStages(b *testing.B) { timingBenchmark(b, "spade", false) }

// BenchmarkFig6OpusStages regenerates the OPUS per-stage timing runs
// (Figure 6); the Neo4j warm-up cost dominates, as in the paper.
func BenchmarkFig6OpusStages(b *testing.B) { timingBenchmark(b, "opus", false) }

// BenchmarkFig7CamflowStages regenerates the CamFlow per-stage timing
// runs (Figure 7).
func BenchmarkFig7CamflowStages(b *testing.B) { timingBenchmark(b, "camflow", false) }

func scaleBenchmark(b *testing.B, tool string, fast bool) {
	b.Helper()
	s := bench.NewSuite(fast)
	for i := 0; i < b.N; i++ {
		if _, err := s.RunScalability(context.Background(), tool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8SpadeScale regenerates the SPADE scalability sweep
// (Figure 8, scale1..scale8).
func BenchmarkFig8SpadeScale(b *testing.B) { scaleBenchmark(b, "spade", false) }

// BenchmarkFig9OpusScale regenerates the OPUS scalability sweep
// (Figure 9).
func BenchmarkFig9OpusScale(b *testing.B) { scaleBenchmark(b, "opus", false) }

// BenchmarkFig10CamflowScale regenerates the CamFlow scalability sweep
// (Figure 10).
func BenchmarkFig10CamflowScale(b *testing.B) { scaleBenchmark(b, "camflow", false) }

// BenchmarkTable4ModuleSizes regenerates the module line counts
// (Table 4).
func BenchmarkTable4ModuleSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table4ModuleSizes("."); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCostMinimization measures the comparison stage's
// optimizing embed against first-solution search, quantifying what the
// #minimize objective costs.
func BenchmarkAblationCostMinimization(b *testing.B) {
	s := bench.NewSuite(true)
	res, err := s.Run(context.Background(), "camflow", "rename")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("minimize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := match.SubgraphEmbed(res.BG, res.FG); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSpadeStorage compares SPADE's two storage backends:
// the Graphviz backend (spade) against the Neo4j backend (spn), both
// resolved through the capture registry. The backend alone recreates
// the OPUS-like transformation bottleneck.
func BenchmarkAblationSpadeStorage(b *testing.B) {
	prog, _ := benchprog.ByName("rename")
	run := func(b *testing.B, backend string) {
		rec, err := capture.OpenContext(backend, capture.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			n, err := rec.Record(context.Background(), prog, benchprog.Foreground, i)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rec.Transform(n); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("spg-dot", func(b *testing.B) { run(b, "spade") })
	b.Run("spn-neo4j", func(b *testing.B) { run(b, "spn") })
}

// BenchmarkPipelineEndToEnd measures one full pipeline run (rename
// under SPADE), the unit of work every experiment repeats.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	s := bench.NewSuite(true)
	rec, err := s.Recorder("spade")
	if err != nil {
		b.Fatal(err)
	}
	prog, _ := benchprog.ByName("rename")
	runner := provmark.New(rec)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunContext(ctx, prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarityEngineMatrix measures what the classification
// engine costs a full matrix run: the (3 tools × 5 timing syscalls)
// grid with per-run ASP solver invocations and fingerprint
// computations reported alongside wall-clock time. Each cell
// classifies its own fresh trial graphs, so these counts are the
// grid's whole classification work.
func BenchmarkSimilarityEngineMatrix(b *testing.B) {
	progs := make([]benchprog.Program, 0, len(bench.TimingSyscalls))
	for _, sc := range bench.TimingSyscalls {
		prog, ok := benchprog.ByName(sc)
		if !ok {
			b.Fatalf("unknown benchmark %q", sc)
		}
		progs = append(progs, prog)
	}
	m := provmark.Matrix{
		Tools:      []string{"spade", "opus", "camflow"},
		Capture:    capture.Options{Fast: true},
		Benchmarks: progs,
		Workers:    4,
	}
	startSolves := asp.SolveInvocations()
	startPrints := graph.FingerprintComputations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := m.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, cell := range cells {
			if cell.Err != nil {
				b.Fatal(cell.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(asp.SolveInvocations()-startSolves)/float64(b.N), "solves/op")
	b.ReportMetric(float64(graph.FingerprintComputations()-startPrints)/float64(b.N), "fingerprints/op")
}

// BenchmarkMatrixFanout measures the streaming matrix runner over the
// (3 tools × 5 timing syscalls) grid at increasing worker-pool bounds
// — the scaling shape of the one execution path the CLIs and suite
// share.
func BenchmarkMatrixFanout(b *testing.B) {
	progs := make([]benchprog.Program, 0, len(bench.TimingSyscalls))
	for _, sc := range bench.TimingSyscalls {
		prog, ok := benchprog.ByName(sc)
		if !ok {
			b.Fatalf("unknown benchmark %q", sc)
		}
		progs = append(progs, prog)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4", 8: "w8"}[workers], func(b *testing.B) {
			m := provmark.Matrix{
				Tools:      []string{"spade", "opus", "camflow"},
				Capture:    capture.Options{Fast: true},
				Benchmarks: progs,
				Workers:    workers,
			}
			for i := 0; i < b.N; i++ {
				cells, err := m.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				for _, cell := range cells {
					if cell.Err != nil {
						b.Fatal(cell.Err)
					}
				}
			}
		})
	}
}
