package bench

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
)

func TestTable1GroupsComplete(t *testing.T) {
	groups := Table1Groups()
	if len(groups[1]) != 23 || len(groups[2]) != 6 || len(groups[3]) != 12 || len(groups[4]) != 3 {
		t.Errorf("group sizes: %d/%d/%d/%d", len(groups[1]), len(groups[2]), len(groups[3]), len(groups[4]))
	}
	out := RenderTable1()
	for _, want := range []string{"Files", "Processes", "Permissions", "Pipes", "rename", "tee"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestFig1RenameShapes(t *testing.T) {
	s := NewSuite(true)
	f, err := s.RunFig1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range Tools {
		if f[tool].Empty {
			t.Errorf("%s: rename empty", tool)
		}
	}
	// The paper's qualitative observations about Figure 1:
	// SPADE: two artifacts linked to each other and the process.
	spadeArtifacts := 0
	for _, n := range f["spade"].Target.Nodes() {
		if n.Label == "Artifact" {
			spadeArtifacts++
		}
	}
	if spadeArtifacts != 2 {
		t.Errorf("spade rename has %d artifacts, want 2", spadeArtifacts)
	}
	// OPUS: around a dozen elements including the call event itself.
	if f["opus"].Target.Size() < 8 {
		t.Errorf("opus rename graph too small: %d elements", f["opus"].Target.Size())
	}
	// CamFlow: a new path node; the old path absent.
	oldPath, newPath := false, false
	for _, n := range f["camflow"].Target.Nodes() {
		switch n.Props["cf:pathname"] {
		case "/stage/test.txt":
			oldPath = true
		case "/stage/renamed.txt":
			newPath = true
		}
	}
	if oldPath || !newPath {
		t.Errorf("camflow rename paths: old=%v new=%v, want only new", oldPath, newPath)
	}
	out := RenderFig1(f)
	if !strings.Contains(out, "spade") || !strings.Contains(out, "Figure 1") {
		t.Error("fig1 rendering incomplete")
	}
}

func TestTable3Cells(t *testing.T) {
	s := NewSuite(true)
	res, err := s.RunTable3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The Empty cells of Table 3 in the paper.
	wantEmpty := map[[2]string]bool{
		{"dup", "spade"}:      true,
		{"read", "opus"}:      true,
		{"write", "opus"}:     true,
		{"setresuid", "opus"}: true,
		{"dup", "camflow"}:    true,
	}
	for sc, row := range res {
		for tool, cell := range row {
			want := wantEmpty[[2]string{sc, tool}]
			if cell.Empty != want {
				t.Errorf("table3 %s/%s: empty=%v want %v", tool, sc, cell.Empty, want)
			}
		}
	}
	out := RenderTable3(res)
	if !strings.Contains(out, "setresuid") || !strings.Contains(out, "Empty") {
		t.Error("table3 rendering incomplete")
	}
}

func TestTimingRows(t *testing.T) {
	s := NewSuite(true)
	rows, err := s.RunTiming(context.Background(), "spade")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(TimingSyscalls) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Times.Generalization <= 0 || r.Times.Comparison <= 0 {
			t.Errorf("%s: missing stage times %+v", r.Label, r.Times)
		}
	}
	out := RenderTiming("Figure 5 test", rows)
	if !strings.Contains(out, "execve") || !strings.Contains(out, "T=") {
		t.Error("timing rendering incomplete")
	}
}

func TestScalabilityRows(t *testing.T) {
	s := NewSuite(true)
	rows, err := s.RunScalability(context.Background(), "camflow")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Label != "scale1" || rows[3].Label != "scale8" {
		t.Fatalf("rows = %+v", rows)
	}
	// Shape check: scale8 must give the solver stages a larger input
	// than scale1 — its generalized foreground has more nodes and
	// edges. (The background omits the repeated target, so the
	// generalized backgrounds are the same size at every scale.)
	rec, err := s.Recorder("camflow")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.matrix(context.Background(), []capture.Recorder{rec},
		[]benchprog.Program{benchprog.ScaleProgram(1), benchprog.ScaleProgram(8)})
	if err != nil {
		t.Fatal(err)
	}
	fg1, fg8 := cells[0].Result.FG, cells[1].Result.FG
	if fg8.NumNodes() <= fg1.NumNodes() || fg8.NumEdges() <= fg1.NumEdges() {
		t.Errorf("scale8 generalized FG (%d nodes, %d edges) not larger than scale1's (%d nodes, %d edges)",
			fg8.NumNodes(), fg8.NumEdges(), fg1.NumNodes(), fg1.NumEdges())
	}
}

func TestTable4CountsThisRepo(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := Table4ModuleSizes(root)
	if err != nil {
		t.Skipf("source tree not available: %v", err)
	}
	if len(sizes) != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
	for _, s := range sizes {
		if s.Recording < 100 || s.Transformation < 50 {
			t.Errorf("%s: implausible line counts %+v", s.Tool, s)
		}
	}
	out := RenderTable4(sizes)
	if !strings.Contains(out, "Recording") || !strings.Contains(out, "PROV-JSON") {
		t.Error("table4 rendering incomplete")
	}
}

func TestSuiteUnknownTool(t *testing.T) {
	s := NewSuite(true)
	if _, err := s.Recorder("pass"); err == nil {
		t.Error("unknown tool accepted")
	}
	if _, err := s.Run(context.Background(), "spade", "nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
