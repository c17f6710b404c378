package spade

import (
	"context"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/provmark"
)

func camflowReporterConfig() Config {
	cfg := DefaultConfig()
	cfg.Reporter = ReporterCamFlow
	return cfg
}

func runPipeline(t *testing.T, cfg Config, benchName string) *provmark.Result {
	t.Helper()
	prog, ok := benchprog.ByName(benchName)
	if !ok {
		t.Fatalf("unknown benchmark %s", benchName)
	}
	res, err := provmark.New(New(cfg)).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCamFlowReporterExtendsCoverage: syscalls invisible to the audit
// reporter (chown, setresgid, tee) become visible through LSM hooks,
// while keeping SPADE's vocabulary.
func TestCamFlowReporterExtendsCoverage(t *testing.T) {
	for _, benchName := range []string{"chown", "setresgid", "tee", "fchown"} {
		audit := runPipeline(t, DefaultConfig(), benchName)
		lsm := runPipeline(t, camflowReporterConfig(), benchName)
		if !audit.Empty {
			t.Errorf("%s: audit reporter unexpectedly recorded it", benchName)
		}
		if lsm.Empty {
			t.Errorf("%s: camflow reporter missed it (%s)", benchName, lsm.Reason)
			continue
		}
		// SPADE vocabulary preserved.
		for _, n := range lsm.Target.Nodes() {
			if n.Label != "Process" && n.Label != "Artifact" && n.Label != "dummy" {
				t.Errorf("%s: non-SPADE node label %q", benchName, n.Label)
			}
		}
	}
}

// TestCamFlowReporterFixesVforkDV: the LSM task_create hook fires at
// creation time, so the vfork child connects to its parent — the audit
// reporter's DV quirk disappears.
func TestCamFlowReporterFixesVforkDV(t *testing.T) {
	res := runPipeline(t, camflowReporterConfig(), "vfork")
	if res.Empty {
		t.Fatalf("vfork empty: %s", res.Reason)
	}
	connected := false
	for _, e := range res.Target.Edges() {
		if e.Label == "WasTriggeredBy" && e.Props["operation"] == "task_create" {
			connected = true
		}
	}
	if !connected {
		t.Error("vfork child not connected under the camflow reporter")
	}
}

// TestCamFlowReporterInheritsLSMGaps: hooks CamFlow does not relay
// (dup, pipe creation) stay invisible regardless of the consumer.
func TestCamFlowReporterInheritsLSMGaps(t *testing.T) {
	for _, benchName := range []string{"dup", "pipe"} {
		res := runPipeline(t, camflowReporterConfig(), benchName)
		if !res.Empty {
			t.Errorf("%s: recorded despite missing LSM hook", benchName)
		}
	}
}

// TestCamFlowReporterStillBlindToDenied: CamFlow 0.4.5 does not relay
// denied checks, so the failed-call blindness carries over.
func TestCamFlowReporterStillBlindToDenied(t *testing.T) {
	prog := benchprog.FailedRename()
	res, err := provmark.New(New(camflowReporterConfig())).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty {
		t.Error("denied rename recorded through the camflow reporter")
	}
}
