package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"
	"provmark/internal/provmark"

	// The suite resolves its tools through the capture registry.
	_ "provmark/internal/capture/camflow"
	_ "provmark/internal/capture/opus"
	_ "provmark/internal/capture/spade"
)

// Suite bundles the registry-resolved recorders under their baseline
// configurations and runs the paper's experiments against them. Every
// multi-cell experiment executes through the provmark.Matrix runner,
// with per-stage timings sourced from the pipeline's observer hooks.
type Suite struct {
	recorders map[string]capture.Recorder
	// Workers bounds the matrix worker pool for multi-cell experiments.
	// The default of 1 keeps runs sequential so per-stage timings are
	// undistorted by CPU contention; matrix-style validation runs can
	// raise it.
	Workers int
}

// NewSuite builds the baseline suite. fast substitutes cheap storage
// costs for the Neo4j simulation so unit tests stay quick; experiments
// and benchmarks use fast=false to reproduce the timing shapes of
// Figures 5–10.
func NewSuite(fast bool) *Suite {
	s := &Suite{
		recorders: map[string]capture.Recorder{},
		Workers:   1,
	}
	opts := capture.Options{Fast: fast}
	// spn: SPADE with Neo4j storage, the paper CLI's second SPADE
	// profile. Not part of the Table 2 tool columns.
	for _, tool := range []string{"spade", "opus", "camflow", "spn"} {
		rec, err := capture.Open(tool, opts)
		if err != nil {
			panic(fmt.Sprintf("bench: baseline backend missing: %v", err))
		}
		s.recorders[tool] = rec
	}
	return s
}

// Recorder returns the named tool.
func (s *Suite) Recorder(tool string) (capture.Recorder, error) {
	rec, ok := s.recorders[tool]
	if !ok {
		return nil, fmt.Errorf("bench: unknown tool %q", tool)
	}
	return rec, nil
}

// matrix fans progs out across recorders on the suite's worker pool
// and collects every cell, failing on the first cell error.
func (s *Suite) matrix(ctx context.Context, recs []capture.Recorder, progs []benchprog.Program, opts ...provmark.Option) ([]provmark.MatrixResult, error) {
	workers := s.Workers
	if workers < 1 {
		workers = 1
	}
	cols := make([]capture.RecorderContext, len(recs))
	for i, rec := range recs {
		cols[i] = capture.WithContext(rec)
	}
	m := provmark.Matrix{
		ContextRecorders: cols,
		Benchmarks:       progs,
		Workers:          workers,
		Pipeline:         opts,
	}
	cells, err := m.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("bench: matrix: %w", err)
	}
	for _, cell := range cells {
		if cell.Err != nil {
			return nil, fmt.Errorf("bench: %s/%s: %w", cell.Tool, cell.Benchmark, cell.Err)
		}
	}
	return cells, nil
}

// suiteRecorders resolves tool names against the suite.
func (s *Suite) suiteRecorders(tools []string) ([]capture.Recorder, error) {
	out := make([]capture.Recorder, 0, len(tools))
	for _, tool := range tools {
		rec, err := s.Recorder(tool)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// Run benchmarks one named syscall under one tool.
func (s *Suite) Run(ctx context.Context, tool, benchName string) (*provmark.Result, error) {
	rec, err := s.Recorder(tool)
	if err != nil {
		return nil, err
	}
	prog, ok := benchprog.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q", benchName)
	}
	return provmark.New(rec).RunContext(ctx, prog)
}

// RunProgram benchmarks an arbitrary program (scalability, failure
// cases) under one tool.
func (s *Suite) RunProgram(ctx context.Context, tool string, prog benchprog.Program) (*provmark.Result, error) {
	rec, err := s.Recorder(tool)
	if err != nil {
		return nil, err
	}
	return provmark.New(rec).RunContext(ctx, prog)
}

// Table2Row is the outcome of one syscall across all tools.
type Table2Row struct {
	Group    int
	Syscall  string
	Actual   map[string]Cell // note copied from expectation when status agrees
	Expected map[string]Cell
	Match    map[string]bool
}

// Table2Result is the full validation matrix plus agreement summary.
type Table2Result struct {
	Rows       []Table2Row
	Mismatches int
	Total      int
}

// RunTable2 reproduces Table 2: every benchmark under every tool —
// one matrix run over the full (tools × syscalls) grid — compared
// cell-by-cell against the paper's published matrix.
func (s *Suite) RunTable2(ctx context.Context) (*Table2Result, error) {
	recs, err := s.suiteRecorders(Tools)
	if err != nil {
		return nil, err
	}
	progs := namedPrograms()
	cells, err := s.matrix(ctx, recs, progs)
	if err != nil {
		return nil, fmt.Errorf("bench: table2: %w", err)
	}
	actual := map[string]map[string]*provmark.Result{}
	for _, cell := range cells {
		if actual[cell.Benchmark] == nil {
			actual[cell.Benchmark] = map[string]*provmark.Result{}
		}
		actual[cell.Benchmark][cell.Tool] = cell.Result
	}
	expected := ExpectedTable2()
	res := &Table2Result{}
	for _, prog := range progs {
		name := prog.Name
		row := Table2Row{
			Group:    prog.Group,
			Syscall:  name,
			Actual:   map[string]Cell{},
			Expected: expected[name],
			Match:    map[string]bool{},
		}
		for _, tool := range Tools {
			r := actual[name][tool]
			cell := Cell{OK: !r.Empty}
			if exp, ok := expected[name][tool]; ok && exp.OK == cell.OK {
				cell.Note = exp.Note
			}
			row.Actual[tool] = cell
			match := expected[name][tool].OK == cell.OK
			row.Match[tool] = match
			res.Total++
			if !match {
				res.Mismatches++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// namedPrograms lists the Table 1 benchmark programs in name order.
func namedPrograms() []benchprog.Program {
	names := benchprog.Names()
	out := make([]benchprog.Program, 0, len(names))
	for _, name := range names {
		prog, _ := benchprog.ByName(name)
		out = append(out, prog)
	}
	return out
}

// Table3Cell summarizes one example benchmark graph for Table 3.
type Table3Cell struct {
	Empty bool
	Stats graph.Stats
}

// RunTable3 reproduces Table 3: the example benchmark results for
// open, read, write, dup, setuid and setresuid across the three tools,
// reported as graph shapes (node/edge counts).
func (s *Suite) RunTable3(ctx context.Context) (map[string]map[string]Table3Cell, error) {
	syscalls := []string{"open", "read", "write", "dup", "setuid", "setresuid"}
	recs, err := s.suiteRecorders(Tools)
	if err != nil {
		return nil, err
	}
	progs := make([]benchprog.Program, 0, len(syscalls))
	for _, sc := range syscalls {
		prog, ok := benchprog.ByName(sc)
		if !ok {
			return nil, fmt.Errorf("bench: table3: unknown benchmark %q", sc)
		}
		progs = append(progs, prog)
	}
	cells, err := s.matrix(ctx, recs, progs)
	if err != nil {
		return nil, fmt.Errorf("bench: table3: %w", err)
	}
	out := make(map[string]map[string]Table3Cell, len(syscalls))
	for _, c := range cells {
		if out[c.Benchmark] == nil {
			out[c.Benchmark] = map[string]Table3Cell{}
		}
		cell := Table3Cell{Empty: c.Result.Empty}
		if !c.Result.Empty {
			cell.Stats = graph.Summarize(c.Result.Target)
		}
		out[c.Benchmark][c.Tool] = cell
	}
	return out, nil
}

// Fig1Result holds the rename benchmark graphs of Figure 1.
type Fig1Result map[string]*provmark.Result

// RunFig1 reproduces Figure 1: how the three tools represent a rename
// — a one-row matrix across all tool columns.
func (s *Suite) RunFig1(ctx context.Context) (Fig1Result, error) {
	recs, err := s.suiteRecorders(Tools)
	if err != nil {
		return nil, err
	}
	prog, _ := benchprog.ByName("rename")
	cells, err := s.matrix(ctx, recs, []benchprog.Program{prog})
	if err != nil {
		return nil, fmt.Errorf("bench: fig1: %w", err)
	}
	out := Fig1Result{}
	for _, c := range cells {
		out[c.Tool] = c.Result
	}
	return out, nil
}

// TimingRow is one bar of Figures 5–10.
type TimingRow struct {
	Label string
	Times provmark.StageTimes
}

// TimingSyscalls is the representative set of Figures 5–7.
var TimingSyscalls = []string{"open", "execve", "fork", "setuid", "rename"}

// RunTiming reproduces Figures 5–7: per-stage processing times for the
// representative syscalls under one tool. Timings come from the
// pipeline's stage-observer hooks, not the result structs.
func (s *Suite) RunTiming(ctx context.Context, tool string) ([]TimingRow, error) {
	progs := make([]benchprog.Program, 0, len(TimingSyscalls))
	for _, sc := range TimingSyscalls {
		prog, ok := benchprog.ByName(sc)
		if !ok {
			return nil, fmt.Errorf("bench: timing: unknown benchmark %q", sc)
		}
		progs = append(progs, prog)
	}
	rows, err := s.observedTiming(ctx, tool, progs)
	if err != nil {
		return nil, fmt.Errorf("bench: timing: %w", err)
	}
	return rows, nil
}

// Scales is the Figures 8–10 parameter sweep.
var Scales = []int{1, 2, 4, 8}

// RunScalability reproduces Figures 8–10: per-stage times as the target
// action (create+unlink) is repeated 1, 2, 4 and 8 times.
func (s *Suite) RunScalability(ctx context.Context, tool string) ([]TimingRow, error) {
	progs := make([]benchprog.Program, 0, len(Scales))
	for _, n := range Scales {
		progs = append(progs, benchprog.ScaleProgram(n))
	}
	rows, err := s.observedTiming(ctx, tool, progs)
	if err != nil {
		return nil, fmt.Errorf("bench: scalability: %w", err)
	}
	return rows, nil
}

// observedTiming runs one tool over progs through the matrix runner
// and assembles per-stage times from StageObserver events, one row per
// program in input order.
func (s *Suite) observedTiming(ctx context.Context, tool string, progs []benchprog.Program) ([]TimingRow, error) {
	rec, err := s.Recorder(tool)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	times := map[string]*provmark.StageTimes{}
	observer := func(ev provmark.StageEvent) {
		if ev.Err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		t := times[ev.Benchmark]
		if t == nil {
			t = &provmark.StageTimes{}
			times[ev.Benchmark] = t
		}
		switch ev.Stage {
		case provmark.StageRecording:
			t.Recording = ev.Duration
		case provmark.StageTransformation:
			t.Transformation = ev.Duration
		case provmark.StageGeneralization:
			t.Generalization = ev.Duration
		case provmark.StageComparison:
			t.Comparison = ev.Duration
		}
	}
	if _, err := s.matrix(ctx, []capture.Recorder{rec}, progs, provmark.WithStageObserver(observer)); err != nil {
		return nil, err
	}
	out := make([]TimingRow, 0, len(progs))
	for _, prog := range progs {
		t := times[prog.Name]
		if t == nil {
			return nil, fmt.Errorf("no observed timings for %s/%s", tool, prog.Name)
		}
		out = append(out, TimingRow{Label: prog.Name, Times: *t})
	}
	return out, nil
}

// Table1Groups reproduces Table 1: the benchmarked syscall families by
// group.
func Table1Groups() map[int][]string {
	out := map[int][]string{}
	for _, name := range benchprog.Names() {
		prog, _ := benchprog.ByName(name)
		out[prog.Group] = append(out[prog.Group], name)
	}
	for g := range out {
		sort.Strings(out[g])
	}
	return out
}

// GroupTitles names the Table 1 groups.
var GroupTitles = map[int]string{
	1: "Files",
	2: "Processes",
	3: "Permissions",
	4: "Pipes",
}
