package provmark_test

import (
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/capture/camflow"
	"provmark/internal/capture/opus"
	"provmark/internal/capture/spade"
	"provmark/internal/neo4jsim"
	"provmark/internal/provmark"
)

// fastRecorders returns the three tools with storage costs tuned down
// for unit testing.
func fastRecorders() map[string]capture.Recorder {
	return map[string]capture.Recorder{
		"spade": spade.New(spade.DefaultConfig()),
		"opus": opus.New(opus.Config{
			DB: neo4jsim.Options{WarmupPages: 1, ScanRoundsPerRow: 1},
		}),
		"camflow": camflow.New(camflow.DefaultConfig()),
	}
}

func runBenchmark(t *testing.T, tool, benchName string) *provmark.Result {
	t.Helper()
	rec := fastRecorders()[tool]
	if rec == nil {
		t.Fatalf("unknown tool %q", tool)
	}
	prog, ok := benchprog.ByName(benchName)
	if !ok {
		t.Fatalf("unknown benchmark %q", benchName)
	}
	res, err := provmark.New(rec).Run(prog)
	if err != nil {
		t.Fatalf("run %s under %s: %v", benchName, tool, err)
	}
	return res
}

func TestRenameRecordedByAllTools(t *testing.T) {
	for tool := range fastRecorders() {
		res := runBenchmark(t, tool, "rename")
		if res.Empty {
			t.Errorf("%s: rename should be recorded, got empty (%s)", tool, res.Reason)
			continue
		}
		if res.Target.NumNodes() == 0 {
			t.Errorf("%s: rename target graph has no nodes", tool)
		}
	}
}

func TestTable2SpotChecks(t *testing.T) {
	cases := []struct {
		tool, bench string
		wantEmpty   bool
	}{
		{"spade", "open", false},
		{"spade", "dup", true},   // SC: state change only
		{"spade", "mknod", true}, // NR
		{"spade", "chown", true}, // NR
		{"spade", "pipe", true},  // NR
		{"spade", "setresgid", true},
		{"spade", "setresuid", false}, // actual change observed
		{"spade", "vfork", false},
		{"opus", "read", true},  // NR by default config
		{"opus", "write", true}, // NR
		{"opus", "dup", false},
		{"opus", "mknod", false},
		{"opus", "mknodat", true}, // NR
		{"opus", "clone", true},   // NR: raw clone bypasses libc
		{"opus", "pipe", false},
		{"opus", "tee", true},        // NR
		{"camflow", "close", true},   // LP
		{"camflow", "dup", true},     // NR
		{"camflow", "symlink", true}, // NR in 0.4.5
		{"camflow", "tee", false},
		{"camflow", "chown", false},
		{"camflow", "setresgid", false},
		{"camflow", "read", false},
	}
	for _, tc := range cases {
		res := runBenchmark(t, tc.tool, tc.bench)
		if res.Empty != tc.wantEmpty {
			t.Errorf("%s/%s: empty=%v (reason %q), want empty=%v",
				tc.tool, tc.bench, res.Empty, res.Reason, tc.wantEmpty)
		}
	}
}

func TestExitAndKillAreProvMarkLimitations(t *testing.T) {
	for tool := range fastRecorders() {
		for _, bench := range []string{"exit", "kill"} {
			res := runBenchmark(t, tool, bench)
			if !res.Empty {
				t.Errorf("%s/%s: want empty (LP), got %d-element target",
					tool, bench, res.Target.Size())
			}
		}
	}
}

func TestVforkDisconnectedUnderSpade(t *testing.T) {
	res := runBenchmark(t, "spade", "vfork")
	if res.Empty {
		t.Fatalf("vfork under spade should be non-empty, got %s", res.Reason)
	}
	// The DV observation: the child process vertex is present but no
	// edge connects it to the parent (dummy nodes excluded).
	for _, e := range res.Target.Edges() {
		if e.Label == "WasTriggeredBy" {
			t.Errorf("vfork target graph has a WasTriggeredBy edge; expected disconnected child (DV)")
		}
	}
	procs := 0
	for _, n := range res.Target.Nodes() {
		if n.Label == "Process" {
			procs++
		}
	}
	if procs != 1 {
		t.Errorf("vfork target should contain exactly the child process vertex, got %d", procs)
	}
}

func TestForkConnectedUnderSpade(t *testing.T) {
	res := runBenchmark(t, "spade", "fork")
	if res.Empty {
		t.Fatalf("fork under spade should be non-empty, got %s", res.Reason)
	}
	found := false
	for _, e := range res.Target.Edges() {
		if e.Label == "WasTriggeredBy" {
			found = true
		}
	}
	if !found {
		t.Error("fork target graph should contain a WasTriggeredBy edge to the parent")
	}
}
