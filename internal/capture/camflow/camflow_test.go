package camflow

import (
	"encoding/json"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/graph"
)

func record(t *testing.T, cfg Config, prog benchprog.Program, v benchprog.Variant, trial int) *graph.Graph {
	t.Helper()
	rec := New(cfg)
	n, err := rec.Record(prog, v, trial)
	if err != nil {
		t.Fatal(err)
	}
	g, err := rec.Transform(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func byName(t *testing.T, name string) benchprog.Program {
	t.Helper()
	prog, ok := benchprog.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return prog
}

func noJitter() Config {
	cfg := DefaultConfig()
	cfg.JitterPeriod = 0
	return cfg
}

func TestNativeFormatIsProvJSON(t *testing.T) {
	rec := New(DefaultConfig())
	n, err := rec.Record(byName(t, "open"), benchprog.Foreground, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Format() != "prov-json" {
		t.Errorf("format = %s", n.Format())
	}
	out, ok := n.(Output)
	if !ok {
		t.Fatal("wrong native type")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out.JSON, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if _, ok := doc["activity"]; !ok {
		t.Error("PROV-JSON lacks an activity section")
	}
}

// TestFileHasObjectAndPathNodes: Figure 1b's separate inode-object and
// path entities.
func TestFileHasObjectAndPathNodes(t *testing.T) {
	g := record(t, noJitter(), byName(t, "open"), benchprog.Foreground, 0)
	var fileEnt, pathEnt bool
	for _, n := range g.Nodes() {
		if n.Label != "entity" {
			continue
		}
		switch n.Props["prov:type"] {
		case "file":
			fileEnt = true
		case "path":
			pathEnt = true
		}
	}
	if !fileEnt || !pathEnt {
		t.Errorf("file=%v path=%v entities", fileEnt, pathEnt)
	}
}

// TestRenameOldPathAbsent: the rename result associates a new path with
// the object; the old path does not appear in the delta.
func TestRenameOldPathAbsent(t *testing.T) {
	bg := record(t, noJitter(), byName(t, "rename"), benchprog.Background, 0)
	fg := record(t, noJitter(), byName(t, "rename"), benchprog.Foreground, 0)
	newInBg, newInFg := pathPresent(bg, "/stage/renamed.txt"), pathPresent(fg, "/stage/renamed.txt")
	if newInBg || !newInFg {
		t.Errorf("new path presence: bg=%v fg=%v", newInBg, newInFg)
	}
	// The old path never got a node in either variant: no hook fired
	// for it before the rename (the file was created by staging).
	if pathPresent(fg, "/stage/test.txt") {
		t.Error("old path node present in rename foreground")
	}
}

func pathPresent(g *graph.Graph, path string) bool {
	for _, n := range g.Nodes() {
		if n.Props["cf:pathname"] == path {
			return true
		}
	}
	return false
}

// TestDeniedOperationsSkippedByDefault but recordable.
func TestDeniedOperationsSkippedByDefault(t *testing.T) {
	prog := benchprog.FailedRename()
	bg := record(t, noJitter(), prog, benchprog.Background, 0)
	fg := record(t, noJitter(), prog, benchprog.Foreground, 0)
	if bg.Size() != fg.Size() {
		t.Error("denied rename recorded under default config")
	}
	cfg := noJitter()
	cfg.RecordDenied = true
	fgOn := record(t, cfg, prog, benchprog.Foreground, 0)
	if fgOn.Size() <= fg.Size() {
		t.Error("RecordDenied did not record the denied rename")
	}
}

// TestWriteVersionsEntity: writes create a new entity version derived
// from the previous one.
func TestWriteVersionsEntity(t *testing.T) {
	g := record(t, noJitter(), byName(t, "write"), benchprog.Foreground, 0)
	versionEdges := 0
	for _, e := range g.Edges() {
		if e.Label == "wasDerivedFrom" && e.Props["cf:type"] == "version_entity" {
			versionEdges++
		}
	}
	if versionEdges == 0 {
		t.Error("write produced no entity version chain")
	}
}

// TestSetidVersionsActivity: credential changes version the task.
func TestSetidVersionsActivity(t *testing.T) {
	bg := record(t, noJitter(), byName(t, "setuid"), benchprog.Background, 0)
	fg := record(t, noJitter(), byName(t, "setuid"), benchprog.Foreground, 0)
	count := func(g *graph.Graph) int {
		n := 0
		for _, e := range g.Edges() {
			if e.Label == "wasInformedBy" && e.Props["cf:type"] == "version_activity" {
				n++
			}
		}
		return n
	}
	if count(fg) <= count(bg) {
		t.Error("setuid did not version the activity")
	}
}

// TestJitterProducesDistinctStructure every JitterPeriod-th trial.
func TestJitterProducesDistinctStructure(t *testing.T) {
	cfg := DefaultConfig() // JitterPeriod = 3
	prog := byName(t, "open")
	clean := record(t, cfg, prog, benchprog.Foreground, 0)
	jittered := record(t, cfg, prog, benchprog.Foreground, 2) // trial%3 == 2
	if jittered.Size() <= clean.Size() {
		t.Errorf("jittered trial (%d) not larger than clean (%d)", jittered.Size(), clean.Size())
	}
	if clean.Fingerprint() == jittered.Fingerprint() {
		t.Error("jitter did not change structure")
	}
	// Two clean trials agree.
	clean2 := record(t, cfg, prog, benchprog.Foreground, 1)
	if clean.Fingerprint() != clean2.Fingerprint() {
		t.Error("clean trials disagree")
	}
}

func TestCompleteGraphDetectsMissingMachine(t *testing.T) {
	rec := New(DefaultConfig())
	g := record(t, DefaultConfig(), byName(t, "open"), benchprog.Foreground, 0)
	if !rec.CompleteGraph(g) {
		t.Error("complete graph reported incomplete")
	}
	empty := graph.New()
	empty.AddNode("entity", nil)
	if rec.CompleteGraph(empty) {
		t.Error("machine-less graph reported complete")
	}
}

// TestTeeRecordedViaSpliceHook: CamFlow is the only tool seeing tee.
func TestTeeRecordedViaSpliceHook(t *testing.T) {
	bg := record(t, noJitter(), byName(t, "tee"), benchprog.Background, 0)
	fg := record(t, noJitter(), byName(t, "tee"), benchprog.Foreground, 0)
	if fg.Size() <= bg.Size() {
		t.Error("tee not recorded")
	}
	spliceSeen := false
	for _, e := range fg.Edges() {
		if e.Props["cf:type"] == "splice_in" || e.Props["cf:type"] == "splice_out" {
			spliceSeen = true
		}
	}
	if !spliceSeen {
		t.Error("no splice edges in tee foreground graph")
	}
}

func TestBootIDStableAcrossTrials(t *testing.T) {
	rec := New(DefaultConfig())
	prog := byName(t, "open")
	ids := map[string]bool{}
	for trial := 0; trial < 2; trial++ {
		n, err := rec.Record(prog, benchprog.Foreground, trial)
		if err != nil {
			t.Fatal(err)
		}
		g, err := rec.Transform(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range g.Nodes() {
			if id, ok := node.Props["cf:boot_id"]; ok {
				ids[id] = true
			}
		}
	}
	if len(ids) != 1 {
		t.Errorf("boot id not stable: %v", ids)
	}
}

func TestRecorderMetadata(t *testing.T) {
	rec := New(DefaultConfig())
	if rec.Name() != "camflow" || rec.DefaultTrials() != 5 || !rec.FilterGraphs() {
		t.Error("metadata wrong")
	}
}
