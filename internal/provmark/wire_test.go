package provmark_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"provmark/internal/benchprog"
	"provmark/internal/graph"
	"provmark/internal/provmark"
	"provmark/internal/wire"
)

// TestWireRoundTripPreservesResult runs a real pipeline and checks that
// its wire form carries everything the schema covers (scalars, the
// three graphs, the stage times), and that a report rendered from the
// encoded and strict-decoded wire form — what a remote client renders —
// is byte-identical to one rendered locally.
func TestWireRoundTripPreservesResult(t *testing.T) {
	res := runBenchmark(t, "spade", "creat")
	w := provmark.ToWire(res)
	if w.Benchmark != res.Benchmark || w.Tool != res.Tool || w.Trials != res.Trials ||
		w.Empty != res.Empty || w.Reason != string(res.Reason) || w.Cost != res.Cost {
		t.Fatalf("scalar fields changed: %+v vs %+v", w, res)
	}
	for _, pair := range []struct {
		name string
		g    *graph.Graph
		w    *wire.Graph
	}{{"target", res.Target, w.Target}, {"fg", res.FG, w.FG}, {"bg", res.BG, w.BG}} {
		back, err := pair.w.Build()
		if err != nil {
			t.Fatalf("%s: %v", pair.name, err)
		}
		if !graph.Equal(pair.g, back) {
			t.Fatalf("%s graph changed across the wire", pair.name)
		}
	}
	wt := w.Times
	if wt.RecordingNS != res.Times.Recording.Nanoseconds() ||
		wt.TransformationNS != res.Times.Transformation.Nanoseconds() ||
		wt.GeneralizationNS != res.Times.Generalization.Nanoseconds() ||
		wt.ClassificationNS != res.Times.Classification.Nanoseconds() ||
		wt.ComparisonNS != res.Times.Comparison.Nanoseconds() {
		t.Fatalf("times changed: %+v vs %+v", wt, res.Times)
	}
	enc, err := wire.EncodeResult(w)
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.DecodeResult(enc)
	if err != nil {
		t.Fatalf("wire result does not strict-decode: %v", err)
	}
	for _, rt := range []provmark.ResultType{provmark.BenchmarkOnly, provmark.WithGeneralized, provmark.HTMLPage, provmark.JSON} {
		if provmark.Render(w, rt) != provmark.Render(back, rt) {
			t.Errorf("render flavour %d diverges across the wire", rt)
		}
	}
	if provmark.RenderFigureDOT(w) != provmark.RenderFigureDOT(back) {
		t.Error("figure DOT diverges across the wire")
	}
	if provmark.TimingLogLine(w) != provmark.TimingLogLine(back) {
		t.Error("timing log line diverges across the wire")
	}
}

// TestRenderJSON checks the JSON result type is exactly the canonical
// wire encoding plus one newline, and strict-decodes back.
func TestRenderJSON(t *testing.T) {
	res := runBenchmark(t, "spade", "creat")
	out := provmark.Render(provmark.ToWire(res), provmark.JSON)
	if !strings.HasSuffix(out, "\n") || strings.Count(out, "\n") != 1 {
		t.Fatalf("JSON render is not one NDJSON line: %q", out)
	}
	enc, err := wire.EncodeResult(provmark.ToWire(res))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(enc)+"\n" {
		t.Fatalf("JSON render is not the canonical wire encoding:\n%s\nvs\n%s", out, enc)
	}
	w, err := wire.DecodeResult([]byte(strings.TrimSuffix(out, "\n")))
	if err != nil {
		t.Fatalf("JSON render does not strict-decode: %v", err)
	}
	if w.Benchmark != "creat" || w.Tool != "spade" {
		t.Fatalf("decoded JSON render = %+v", w)
	}
}

// TestStageTimesAccountClassification is the PR-2 stage audit: the
// classification sub-stage must be recorded, contained in the
// generalization stage it is part of, and not double-counted in Total.
func TestStageTimesAccountClassification(t *testing.T) {
	var observed []provmark.StageEvent
	rec := fastRecorders()["spade"]
	prog := mustProg(t, "creat")
	res, err := provmark.New(rec,
		provmark.WithTrials(2),
		provmark.WithStageObserver(func(ev provmark.StageEvent) { observed = append(observed, ev) }),
	).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	tms := res.Times
	if tms.Classification <= 0 {
		t.Error("classification sub-stage not recorded in StageTimes")
	}
	if tms.Classification > tms.Generalization {
		t.Errorf("classification (%v) exceeds its containing generalization stage (%v)", tms.Classification, tms.Generalization)
	}
	if got, want := tms.Total(), tms.Recording+tms.Transformation+tms.Generalization+tms.Comparison; got != want {
		t.Errorf("Total() = %v double-counts sub-stages (top-level sum %v)", got, want)
	}

	// Observer view: summing top-level events must reproduce Total();
	// sub-stage events are flagged so observers can skip them.
	var topSum, subSum time.Duration
	for _, ev := range observed {
		if ev.Stage.Substage() {
			subSum += ev.Duration
		} else {
			topSum += ev.Duration
		}
	}
	if topSum != tms.Total() {
		t.Errorf("top-level observer sum %v != Total() %v", topSum, tms.Total())
	}
	if subSum != tms.Classification {
		t.Errorf("sub-stage observer sum %v != Times.Classification %v", subSum, tms.Classification)
	}

	// The wire form carries the sub-stage explicitly with the same
	// containment guarantees.
	wt := provmark.ToWire(res).Times
	if wt.ClassificationNS != tms.Classification.Nanoseconds() {
		t.Errorf("wire classification %d != %d", wt.ClassificationNS, tms.Classification.Nanoseconds())
	}
	if wt.TotalNS != tms.Total().Nanoseconds() {
		t.Errorf("wire total %d != %d", wt.TotalNS, tms.Total().Nanoseconds())
	}
	// The rendered report accounts every stage, including the
	// sub-stage and the recording stage the pre-wire renderer dropped.
	text := provmark.Render(provmark.ToWire(res), provmark.BenchmarkOnly)
	for _, want := range []string{"record=", "transform=", "generalize=", "classify=", "compare=", "total="} {
		if !strings.Contains(text, want) {
			t.Errorf("text report does not account %q:\n%s", want, text)
		}
	}
}

func mustProg(t *testing.T, name string) benchprog.Program {
	t.Helper()
	p, ok := benchprog.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return p
}
