package bench

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// TestPerfSnapshot: the harness produces a complete snapshot whose
// deterministic counters match the checked-in baselines exactly, and
// the gate logic separates pass from regression. The allocation
// budgets are measured without instrumentation, so the snapshot is
// skipped under -short and the race detector (CI's non-race perf step
// runs it instead).
func TestPerfSnapshot(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("perf snapshot is expensive; covered by the dedicated CI step")
	}
	snap, err := RunPerf()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != PerfSchema || snap.ID != perfID {
		t.Errorf("snapshot header = %q id %d", snap.Schema, snap.ID)
	}
	if len(snap.Results) != len(perfBaselines) {
		t.Errorf("snapshot has %d results, want %d", len(snap.Results), len(perfBaselines))
	}
	for _, r := range snap.Results {
		base, ok := perfBaselines[r.Name]
		if !ok {
			t.Errorf("unexpected workload %s", r.Name)
			continue
		}
		if r.NsOp <= 0 {
			t.Errorf("%s: ns_op = %d", r.Name, r.NsOp)
		}
		// The counters are exact: seeded corpora, deterministic engines.
		for counter, want := range base {
			if got := r.Counters[counter]; got != want {
				t.Errorf("%s: %s = %d, want %d (update the baseline if intentional)", r.Name, counter, got, want)
			}
		}
	}
	if err := snap.Gate(2); err != nil {
		t.Errorf("gate(2) failed on a baseline-exact snapshot: %v", err)
	}
	// The goal-directed optimizer claim: pruning + bound-first
	// reordering must cut join probes by at least 5x on the goal
	// corpus (the measured ratio is ~223x; 5x is the gated floor).
	byName := map[string]PerfResult{}
	for _, r := range snap.Results {
		byName[r.Name] = r
	}
	unopt := byName["datalog/goal-ancestry/unoptimized"].Counters["join_probes"]
	opt := byName["datalog/goal-ancestry/optimized"].Counters["join_probes"]
	if opt <= 0 || unopt < opt*5 {
		t.Errorf("goal-ancestry probes: unoptimized %d vs optimized %d — optimizer reduction below 5x", unopt, opt)
	}
	// The parallel engine's exactness claim, on the artifact itself:
	// the width-3 ancestry run counts precisely the sequential run's
	// join probes.
	seqProbes := byName["datalog/ancestry/seminaive-flat"].Counters["join_probes"]
	parProbes := byName["datalog/ancestry/interned-par"].Counters["join_probes"]
	if seqProbes <= 0 || seqProbes != parProbes {
		t.Errorf("ancestry probe parity: sequential %d vs parallel %d", seqProbes, parProbes)
	}
	if err := snap.Gate(0.5); err == nil {
		t.Error("gate(0.5) passed — the gate compares nothing")
	}
	// The snapshot must round-trip as JSON (it is a committed artifact).
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back PerfSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != PerfSchema {
		t.Errorf("round-trip schema = %q", back.Schema)
	}
}

// TestPerfGateDetectsMissingData: a snapshot missing workloads or
// counters is a gate failure, not a silent pass.
func TestPerfGateDetectsMissingData(t *testing.T) {
	empty := &PerfSnapshot{Schema: PerfSchema, ID: perfID}
	if err := empty.Gate(2); err == nil {
		t.Error("gate passed an empty snapshot")
	}
	noCounter := &PerfSnapshot{Schema: PerfSchema, ID: perfID}
	for name := range perfBaselines {
		noCounter.Results = append(noCounter.Results, PerfResult{Name: name, Counters: map[string]int64{}})
	}
	if err := noCounter.Gate(2); err == nil {
		t.Error("gate passed a snapshot with no counters")
	}
}

// TestWLPerfCorpusDigest pins the wl-refine corpus to the sha256 of its
// graphs' String renderings. internal/graph's allocation test builds
// its own copy of this corpus and pins it to the same digest, so the
// allocation claim stays about the graphs this workload measures.
func TestWLPerfCorpusDigest(t *testing.T) {
	const want = "ff050b7328c89e61469424ab60e26091f7f5ccc778d0da75f5b0d1539215178d"
	h := sha256.New()
	for _, g := range wlPerfCorpus(100, 256, 512, 9) {
		fmt.Fprint(h, g)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("wl-refine corpus digest = %s, want %s", got, want)
	}
}
