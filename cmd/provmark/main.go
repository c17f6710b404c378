// Command provmark benchmarks a single syscall under one provenance
// capture tool — the equivalent of the paper's fullAutomation.py.
//
// Usage:
//
//	provmark -tool spade -bench rename [-trials 2] [-result rb|rg|rh]
//	provmark -tool spade -scenario my-scenario.json
//	provmark -tool camflow -bench privesc -rules suspicious.dl -goal 'suspicious(P)'
//
// Tools: spade (DOT output), opus (Neo4j-sim output), camflow
// (PROV-JSON output). Benchmarks: any Table 1 syscall name, one of
// the extra programs rename-failed, privesc, scale1..scale8, or a
// declarative scenario file (-scenario) in the JSON vocabulary of
// internal/benchprog.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
	"provmark/internal/profile"
	"provmark/internal/provmark"

	// Backends register themselves with the capture registry; the CLI
	// resolves -tool by name instead of importing them concretely.
	_ "provmark/internal/capture/camflow"
	_ "provmark/internal/capture/opus"
	_ "provmark/internal/capture/spade"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "provmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("provmark", flag.ContinueOnError)
	tool := fs.String("tool", "spade", "capture backend (see -backends) or profile name (spg, opu, cam)")
	configPath := fs.String("config", "", "profile configuration file (INI, Appendix A.4 format)")
	benchName := fs.String("bench", "", "benchmark name (see -list)")
	scenarioPath := fs.String("scenario", "", "run a declarative scenario from this JSON file instead of -bench")
	trials := fs.Int("trials", 0, "trials per variant (0 = tool default)")
	parallel := fs.Int("parallel", 1, "concurrent recording workers per variant")
	resultType := fs.String("result", "rb", "result type: rb (benchmark), rg (with generalized graphs), rh (html), rj (wire JSON), rd (styled Graphviz figure)")
	list := fs.Bool("list", false, "list available benchmarks and exit")
	backends := fs.Bool("backends", false, "list registered capture backends and exit")
	verbose := fs.Bool("v", false, "log per-stage progress and timings to stderr")
	fast := fs.Bool("fast", false, "use cheap storage costs (skip Neo4j warm-up simulation)")
	rulesPath := fs.String("rules", "", "Datalog rule file to evaluate against the benchmark graph (requires -goal)")
	goalText := fs.String("goal", "", "goal atom for -rules, e.g. 'suspicious(P)'")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *backends {
		for _, name := range capture.Backends() {
			fmt.Println(name)
		}
		return nil
	}
	if *list {
		for _, name := range benchprog.Names() {
			prog, _ := benchprog.ByName(name)
			fmt.Printf("%d %-12s %s\n", prog.Group, name, prog.Desc)
		}
		fmt.Println("extra: " + strings.Join(benchprog.ScenarioNames(benchprog.KindExtra), ", "))
		for _, p := range benchprog.FailureCases() {
			fmt.Printf("%d %-16s %s\n", p.Group, p.Name, p.Desc)
		}
		for _, p := range benchprog.AttackChains() {
			fmt.Printf("%d %-16s %s\n", p.Group, p.Name, p.Desc)
		}
		return nil
	}
	if (*benchName == "") == (*scenarioPath == "") {
		return fmt.Errorf("need exactly one of -bench (try -list) and -scenario")
	}
	// Parse the detection program before the pipeline runs, so a typo in
	// the rule file fails fast instead of after the recording stages.
	var rules []datalog.Rule
	var goal datalog.Atom
	if (*rulesPath == "") != (*goalText == "") {
		return fmt.Errorf("-rules and -goal go together")
	}
	if *rulesPath != "" {
		var err error
		if goal, err = datalog.ParseAtom(*goalText); err != nil {
			return err
		}
		if rules, err = loadRules(*rulesPath, goal); err != nil {
			return err
		}
		if *resultType != "rb" && *resultType != "rg" {
			return fmt.Errorf("-rules needs a textual report (-result rb or rg)")
		}
	}
	var prog benchprog.Program
	var err error
	if *scenarioPath != "" {
		prog, err = loadScenario(*scenarioPath)
	} else {
		prog, err = lookupProgram(*benchName)
	}
	if err != nil {
		return err
	}
	rec, err := resolveRecorder(*tool, *configPath, *fast)
	if err != nil {
		return err
	}
	opts := []provmark.Option{
		provmark.WithTrials(*trials),
		provmark.WithParallelism(*parallel),
	}
	if *verbose {
		opts = append(opts, provmark.WithStageObserver(func(ev provmark.StageEvent) {
			fmt.Fprintf(os.Stderr, "provmark: %s/%s: %s done in %v\n",
				ev.Tool, ev.Benchmark, ev.Stage, ev.Duration)
		}))
	}
	res, err := provmark.New(rec, opts...).RunContext(ctx, prog)
	if err != nil {
		return err
	}
	w := provmark.ToWire(res)
	rt := provmark.BenchmarkOnly
	switch *resultType {
	case "rb":
	case "rg":
		rt = provmark.WithGeneralized
	case "rh":
		rt = provmark.HTMLPage
	case "rj":
		rt = provmark.JSON
	case "rd":
		fmt.Print(provmark.RenderFigureDOT(w))
		return nil
	default:
		return fmt.Errorf("unknown result type %q", *resultType)
	}
	fmt.Print(provmark.Render(w, rt))
	if *rulesPath != "" {
		out, err := evalRules(res, rules, goal)
		if err != nil {
			return err
		}
		fmt.Print(out)
	}
	return nil
}

// loadRules parses a rule file through the static analyzer: every
// diagnostic prints to stderr with its source position, analysis
// errors abort before the recording stages run, and the surviving
// program comes back goal-optimized (pruned to the goal's dependency
// closure, bodies reordered bound-first — binding-preserving).
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

// evalRules matches a Datalog detection program against the benchmark
// result graph — the Dora use case from the command line — and renders
// the bindings through the query reporter shared with provmark-batch.
func evalRules(res *provmark.Result, rules []datalog.Rule, goal datalog.Atom) (string, error) {
	if res.Empty {
		return "", fmt.Errorf("cannot query an empty result (%s)", res.Reason)
	}
	db := datalog.NewDatabase()
	db.LoadGraph(res.Target)
	if err := db.Run(rules); err != nil {
		return "", err
	}
	return datalog.FormatBindings(goal, db.Query(goal)), nil
}

// resolveRecorder maps a -tool argument to a recorder: profile names
// (from -config or the built-in config.ini) take precedence, then the
// registered backend names of the capture registry.
func resolveRecorder(tool, configPath string, fast bool) (capture.Recorder, error) {
	profiles := profile.Default()
	if configPath != "" {
		f, err := os.Open(configPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		profiles, err = profile.Parse(f)
		if err != nil {
			return nil, err
		}
	}
	if _, ok := profiles.Profile(tool); ok {
		return profiles.Build(tool)
	}
	return capture.Open(tool, capture.Options{Fast: fast})
}

// loadScenario reads a declarative scenario file through the strict
// codec and compiles it.
func loadScenario(path string) (benchprog.Program, error) {
	s, err := benchprog.DecodeScenarioFile(path)
	if err != nil {
		return benchprog.Program{}, err
	}
	return s.Compile()
}

func lookupProgram(name string) (benchprog.Program, error) {
	// The registry resolves every named program: Table 2, the extras,
	// and the failure cases. Only the parameterized families (readsN,
	// scaleN at unregistered N) need generator fallbacks.
	if prog, ok := benchprog.ByName(name); ok {
		return prog, nil
	}
	switch {
	case strings.HasPrefix(name, "reads"):
		n, err := strconv.Atoi(name[len("reads"):])
		if err != nil || n < 1 {
			return benchprog.Program{}, fmt.Errorf("bad reads count in %q", name)
		}
		return benchprog.RepeatedReads(n), nil
	case strings.HasPrefix(name, "scale"):
		n, err := strconv.Atoi(name[len("scale"):])
		if err != nil || n < 1 {
			return benchprog.Program{}, fmt.Errorf("bad scale factor in %q", name)
		}
		return benchprog.ScaleProgram(n), nil
	}
	return benchprog.Program{}, fmt.Errorf("unknown benchmark %q (try -list)", name)
}
