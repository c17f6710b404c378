package provmark_test

import (
	"context"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/capture/spade"
	"provmark/internal/graph"
	"provmark/internal/match"
	"provmark/internal/provmark"
)

// TestParallelRecordingMatchesSequential: recording trials concurrently
// must yield the same benchmark result as sequential recording (each
// trial runs in its own kernel, so trial index fully determines the
// output). Run with -race to check recorder thread safety.
func TestParallelRecordingMatchesSequential(t *testing.T) {
	prog, _ := benchprog.ByName("rename")
	seq, err := provmark.New(spade.New(spade.DefaultConfig()), provmark.WithTrials(4)).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	par, err := provmark.New(spade.New(spade.DefaultConfig()),
		provmark.WithTrials(4), provmark.WithParallelism(4)).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Empty != par.Empty {
		t.Fatalf("empty mismatch: seq=%v par=%v", seq.Empty, par.Empty)
	}
	if !seq.Empty {
		if _, ok := match.Similar(seq.Target, par.Target); !ok {
			t.Errorf("parallel target differs: %s vs %s",
				graph.Summarize(seq.Target), graph.Summarize(par.Target))
		}
	}
}

func TestParallelAcrossAllTools(t *testing.T) {
	for tool, rec := range fastRecorders() {
		prog, _ := benchprog.ByName("open")
		res, err := provmark.New(rec, provmark.WithParallelism(rec.DefaultTrials())).RunContext(context.Background(), prog)
		if err != nil {
			t.Errorf("%s: %v", tool, err)
			continue
		}
		if res.Empty {
			t.Errorf("%s: open empty under parallel recording", tool)
		}
	}
}
