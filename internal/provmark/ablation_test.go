package provmark_test

import (
	"errors"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/capture/camflow"
	"provmark/internal/provmark"
)

// jitteryCamflow returns a CamFlow recorder whose every other trial
// carries extra relay structure, so trials split into a small class and
// a large class — the setting in which the Section 3.4 pair-selection
// remarks apply.
func jitteryCamflow() *camflow.Recorder {
	cfg := camflow.DefaultConfig()
	cfg.JitterPeriod = 2
	cfg.FilterGraphs = false
	return camflow.New(cfg)
}

// TestPairSelectionDefaultSucceeds: smallest/smallest (the paper's
// choice) produces a clean benchmark.
func TestPairSelectionDefaultSucceeds(t *testing.T) {
	prog, _ := benchprog.ByName("open")
	res, err := provmark.New(jitteryCamflow(), provmark.WithTrials(6)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty {
		t.Fatalf("open empty under camflow: %s", res.Reason)
	}
	for _, n := range res.Target.Nodes() {
		if n.Props["prov:type"] == "boot" {
			t.Error("jitter structure leaked into the default result")
		}
	}
}

// TestPairSelectionLargestBothSucceeds: "picking the two largest graphs
// also seems to work" (Section 3.4) — both variants pick the jittered
// class, and the extra structure cancels in the comparison.
func TestPairSelectionLargestBothSucceeds(t *testing.T) {
	prog, _ := benchprog.ByName("open")
	res, err := provmark.New(jitteryCamflow(), provmark.WithTrials(6),
		provmark.WithPairExtremes(provmark.Largest, provmark.Largest)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty {
		t.Fatalf("open empty with largest/largest: %s", res.Reason)
	}
}

// TestPairSelectionMaxBgMinFgFails: "picking the largest background
// graph and the smallest foreground graph leads to failure if the extra
// background structure is not found in the foreground" (Section 3.4).
func TestPairSelectionMaxBgMinFgFails(t *testing.T) {
	prog, _ := benchprog.ByName("open")
	res, err := provmark.New(jitteryCamflow(), provmark.WithTrials(6),
		provmark.WithPairExtremes(provmark.Largest, provmark.Smallest)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty || res.Reason != provmark.ReasonNotEmbeddable {
		t.Errorf("want not-embeddable failure, got empty=%v reason=%q", res.Empty, res.Reason)
	}
}

// TestPairSelectionMinBgMaxFgLeaksStructure: "making the opposite
// choice leads to extra structure being found in the difference"
// (Section 3.4) — the jitter boot entity shows up in the result.
func TestPairSelectionMinBgMaxFgLeaksStructure(t *testing.T) {
	prog, _ := benchprog.ByName("open")
	res, err := provmark.New(jitteryCamflow(), provmark.WithTrials(6),
		provmark.WithPairExtremes(provmark.Smallest, provmark.Largest)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty {
		t.Fatalf("unexpected empty result: %s", res.Reason)
	}
	leaked := false
	for _, n := range res.Target.Nodes() {
		if n.Props["prov:type"] == "boot" {
			leaked = true
		}
	}
	if !leaked {
		t.Error("expected the jitter boot entity to leak into the result")
	}
}

// TestFilterGraphsDropsCorruptTrials: failure injection — every other
// trial loses its machine agent; with filtering on the pipeline works,
// with filtering off the corrupt trials form their own class and can
// poison pair selection.
func TestFilterGraphsDropsCorruptTrials(t *testing.T) {
	cfg := camflow.DefaultConfig()
	cfg.JitterPeriod = 0
	cfg.CorruptPeriod = 2
	cfg.FilterGraphs = true
	prog, _ := benchprog.ByName("rename")
	res, err := provmark.New(camflow.New(cfg), provmark.WithTrials(6)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty {
		t.Fatalf("rename empty with filtering: %s", res.Reason)
	}
	// The generalized graphs must contain the machine agent: only
	// complete trials were used.
	hasAgent := false
	for _, n := range res.FG.Nodes() {
		if n.Label == "agent" {
			hasAgent = true
		}
	}
	if !hasAgent {
		t.Error("filtered pipeline used a corrupt (machine-less) trial")
	}

	// Filtering off: the corrupt class (smaller: it lost a node) wins
	// smallest-pair selection, demonstrating why filtering exists.
	res2, err := provmark.New(camflow.New(cfg), provmark.WithTrials(6),
		provmark.WithFilterGraphs(false)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	hasAgent2 := false
	for _, n := range res2.FG.Nodes() {
		if n.Label == "agent" {
			hasAgent2 = true
		}
	}
	if hasAgent2 {
		t.Error("without filtering, the smaller corrupt class should win pair selection")
	}
}

// TestAllTrialsCorruptFails: when every trial is corrupt and filtering
// is on, recording must fail loudly rather than produce a result.
func TestAllTrialsCorruptFails(t *testing.T) {
	cfg := camflow.DefaultConfig()
	cfg.JitterPeriod = 0
	cfg.CorruptPeriod = 1 // every trial
	prog, _ := benchprog.ByName("open")
	_, err := provmark.New(camflow.New(cfg), provmark.WithTrials(3)).Run(prog)
	if !errors.Is(err, provmark.ErrInconsistentTrials) {
		t.Errorf("want ErrInconsistentTrials, got %v", err)
	}
}
