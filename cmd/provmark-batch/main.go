// Command provmark-batch runs the whole Table 1 benchmark suite under
// one tool and prints the per-syscall results — the equivalent of the
// paper's runTests.sh. The suite executes as a streaming matrix run:
// results print as their cells complete, and -parallel bounds how many
// benchmarks are in flight at once. With -store it also saves every
// benchmark graph into a regression store and reports differences from
// stored baselines (the Charlie use case).
//
// With -remote URL the suite is submitted as a job to a provmarkd
// instance instead of executing locally; cells stream back over the
// /v1 NDJSON API and feed the same reporting pipeline, so local and
// remote runs produce identical output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
	"provmark/internal/graph"
	"provmark/internal/jobs/client"
	"provmark/internal/provmark"
	"provmark/internal/wire"

	// Backends register themselves with the capture registry.
	_ "provmark/internal/capture/camflow"
	_ "provmark/internal/capture/opus"
	_ "provmark/internal/capture/spade"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "provmark-batch:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	// Cancel the matrix on any early return so no workers stay blocked
	// on the results channel.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fs := flag.NewFlagSet("provmark-batch", flag.ContinueOnError)
	tool := fs.String("tool", "spade", "capture backend: spade, opus, camflow, spn")
	trials := fs.Int("trials", 0, "trials per variant (0 = tool default)")
	parallel := fs.Int("parallel", 1, "benchmarks in flight at once (matrix worker pool)")
	storeDir := fs.String("store", "", "regression store directory (enables save/compare)")
	htmlDir := fs.String("html", "", "write per-benchmark HTML pages and an index to this directory")
	timeLog := fs.String("timelog", "", "append per-benchmark stage timings to this file (A.6.4 format)")
	fast := fs.Bool("fast", true, "use cheap storage costs")
	remote := fs.String("remote", "", "provmarkd base URL (e.g. http://localhost:8177); run the suite as a remote job")
	scenarioPath := fs.String("scenario", "", "append a declarative scenario (JSON file) to the suite")
	rulesPath := fs.String("rules", "", "Datalog rule file to evaluate against every benchmark graph (requires -goal)")
	goalText := fs.String("goal", "", "goal atom for -rules, e.g. 'suspicious(P)'")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*rulesPath == "") != (*goalText == "") {
		return fmt.Errorf("-rules and -goal go together")
	}
	var rules []datalog.Rule
	var goal datalog.Atom
	if *rulesPath != "" {
		var err error
		if goal, err = datalog.ParseAtom(*goalText); err != nil {
			return err
		}
		if rules, err = loadRules(*rulesPath, goal); err != nil {
			return err
		}
	}
	var scenarios []benchprog.Scenario
	if *scenarioPath != "" {
		s, err := benchprog.DecodeScenarioFile(*scenarioPath)
		if err != nil {
			return err
		}
		// The suite's rows are keyed by name (reporter lines, regression
		// store); a scenario shadowing a Table 1 benchmark would corrupt
		// that benchmark's baseline. provmarkd rejects the same collision
		// server-side — fail fast locally with matching semantics.
		for _, name := range benchprog.Names() {
			if name == s.Name {
				return fmt.Errorf("scenario name %q shadows a suite benchmark", s.Name)
			}
		}
		scenarios = append(scenarios, *s)
	}
	var store *provmark.Store
	if *storeDir != "" {
		var err error
		store, err = provmark.NewStore(*storeDir)
		if err != nil {
			return err
		}
	}
	var index *provmark.IndexWriter
	if *htmlDir != "" {
		var err error
		index, err = provmark.NewIndexWriter(*htmlDir, *tool)
		if err != nil {
			return err
		}
	}
	var timeLogFile *os.File
	if *timeLog != "" {
		var err error
		timeLogFile, err = os.OpenFile(*timeLog, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer timeLogFile.Close()
	}

	rep := &reporter{tool: *tool, store: store, index: index, timeLog: timeLogFile, rules: rules, goal: goal}

	if *remote != "" {
		// Cell concurrency is the server's pool to manage; the local
		// -parallel knob (benchmarks in flight) does not translate.
		if *parallel != 1 {
			fmt.Fprintln(os.Stderr, "provmark-batch: -parallel is ignored with -remote (the server's -workers bounds cell concurrency)")
		}
		if err := runRemote(ctx, *remote, *tool, *fast, *trials, scenarios, rep); err != nil {
			return err
		}
	} else {
		if err := runLocal(ctx, *tool, *fast, *trials, *parallel, scenarios, rep); err != nil {
			return err
		}
	}
	if index != nil {
		path, err := index.Flush()
		if err != nil {
			return err
		}
		fmt.Printf("html report: %s\n", path)
	}
	return nil
}

// loadRules parses the suite's rule file through the static analyzer,
// mirroring provmark's rule loading: diagnostics print to stderr with
// positions, analysis errors abort before any benchmark runs, and the
// reporter evaluates the goal-optimized program (the goal is fixed for
// the whole batch, so pruning to its dependency closure is sound for
// every cell).
func loadRules(path string, goal datalog.Atom) ([]datalog.Rule, error) {
	prog, diags, err := analyze.CheckFile(path, analyze.Options{Goal: &goal})
	if err != nil {
		return nil, err
	}
	diags = analyze.Exclude(diags, analyze.CodeUnreachableRule)
	fmt.Fprint(os.Stderr, analyze.Render(path, diags))
	if analyze.HasErrors(diags) {
		return nil, fmt.Errorf("%s: rules rejected by analysis (%s)", path, analyze.Summary(diags))
	}
	rules, _ := analyze.Optimize(prog.Rules, goal)
	return rules, nil
}

// runLocal executes the suite as a streaming matrix run in-process.
func runLocal(ctx context.Context, tool string, fast bool, trials, parallel int, scenarios []benchprog.Scenario, rep *reporter) error {
	progs := make([]benchprog.Program, 0)
	for _, name := range benchprog.Names() {
		prog, _ := benchprog.ByName(name)
		progs = append(progs, prog)
	}
	m := provmark.Matrix{
		Tools:      []string{tool},
		Capture:    capture.Options{Fast: fast},
		Benchmarks: progs,
		Scenarios:  scenarios,
		Workers:    parallel,
		Pipeline:   []provmark.Option{provmark.WithTrials(trials)},
	}
	results, err := m.Stream(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("batch run: %s\n", tool)
	for cell := range results {
		if err := rep.cell(provmark.ToWireCell(cell)); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// runRemote submits the suite as a provmarkd job and streams its cells
// through the same reporter as a local run, so both modes produce
// identical output.
func runRemote(ctx context.Context, base, tool string, fast bool, trials int, scenarios []benchprog.Scenario, rep *reporter) error {
	c := client.New(base, nil)
	if err := c.Health(ctx); err != nil {
		return err
	}
	spec := &wire.JobSpec{
		Tools:     []string{tool},
		Capture:   &wire.CaptureOptions{Fast: fast},
		Trials:    trials,
		Scenarios: scenarios,
	}
	if len(scenarios) > 0 {
		// A scenario-only spec runs just its scenarios; name the full
		// suite explicitly so the batch still covers Table 1.
		spec.Benchmarks = benchprog.Names()
	}
	fmt.Printf("batch run: %s (remote %s)\n", tool, base)
	status, err := c.Run(ctx, spec, rep.cell)
	if err != nil {
		return err
	}
	if status.State != wire.JobDone {
		return fmt.Errorf("remote job %s ended %s (%d/%d cells, %d failed)",
			status.ID, status.State, status.Completed, status.Total, status.Failed)
	}
	return nil
}

// reporter prints one line per completed cell and feeds the optional
// sinks (regression store, HTML index, timing log). It consumes the
// wire form directly — local cells are converted once, remote cells
// arrive in it — so both modes share one path and graphs are only
// materialized when the regression store needs them.
type reporter struct {
	tool    string
	store   *provmark.Store
	index   *provmark.IndexWriter
	timeLog *os.File
	// rules/goal enable per-cell Datalog matching (-rules/-goal): every
	// non-empty benchmark graph is scanned and the bindings print under
	// the cell's line, identically for local and remote runs.
	rules []datalog.Rule
	goal  datalog.Atom
}

func (p *reporter) cell(cell *wire.MatrixResult) error {
	if cell.Err != "" {
		fmt.Printf("%-12s ERROR %s\n", cell.Benchmark, cell.Err)
		return nil
	}
	res := cell.Result
	status := "empty"
	if !res.Empty {
		status = res.Target.Summary()
	}
	if p.index != nil {
		if err := p.index.Add(res); err != nil {
			return err
		}
	}
	if p.timeLog != nil {
		if _, err := fmt.Fprintln(p.timeLog, provmark.TimingLogLine(res)); err != nil {
			return err
		}
	}
	// The regression store and the rule matcher both need the target
	// graph materialized from wire form; build it once for both.
	var target *graph.Graph
	if (p.store != nil || len(p.rules) > 0) && !res.Empty {
		var err error
		if target, err = res.Target.Build(); err != nil {
			return err
		}
	}
	regression := ""
	if p.store != nil && !res.Empty {
		diff, err := p.store.Check(p.tool, cell.Benchmark, target)
		switch {
		case errors.Is(err, provmark.ErrNoBaseline):
			if err := p.store.Save(p.tool, cell.Benchmark, target); err != nil {
				return err
			}
			regression = "baseline saved"
		case err != nil:
			return err
		case diff.Changed:
			regression = "REGRESSION: " + diff.Detail
		default:
			regression = "matches baseline"
		}
	}
	fmt.Printf("%-12s %-14s %s\n", cell.Benchmark, status, regression)
	if len(p.rules) > 0 && !res.Empty {
		db := datalog.NewDatabase()
		db.LoadGraph(target)
		if err := db.Run(p.rules); err != nil {
			return err
		}
		for _, line := range strings.Split(strings.TrimRight(datalog.FormatBindings(p.goal, db.Query(p.goal)), "\n"), "\n") {
			fmt.Printf("  %s\n", line)
		}
	}
	return nil
}
