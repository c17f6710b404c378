// Package provmark orchestrates the four-stage benchmarking pipeline of
// Figure 3: (1) recording — run foreground and background variants of a
// benchmark several times under a capture tool; (2) transformation —
// convert each native recording to the common Datalog property-graph
// format; (3) generalization — pick two consistent trials per variant
// and unify them, discarding volatile properties; (4) comparison —
// embed the background graph in the foreground graph and subtract,
// leaving the target graph.
package provmark

import (
	"context"
	"errors"
	"fmt"
	"time"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"
	"provmark/internal/match"
)

// Extreme picks which end of the size ordering a trial pair comes from.
type Extreme int

// Pair-size preferences.
const (
	// Smallest selects the consistent pair of smallest size (default;
	// Section 3.4 notes either end works when used for both variants).
	Smallest Extreme = iota + 1
	// Largest selects the consistent pair of largest size.
	Largest
)

// Config is the pipeline's configuration, built by the functional
// options (WithTrials, WithParallelism, …) passed to New.
type Config struct {
	// Trials per variant; zero selects the recorder's default.
	Trials int
	// FilterGraphs overrides the recorder's default graph-filtering
	// behaviour when non-nil.
	FilterGraphs *bool
	// Parallelism bounds the number of concurrent recording workers;
	// values <= 1 record sequentially. Each trial runs in its own
	// simulated kernel, so trials are independent; recorders must be
	// safe for concurrent Record calls (the built-in ones are, except
	// CamFlow under SerializeOnce, which mutates cross-session state).
	Parallelism int
	// Observer, when non-nil, receives a StageEvent as each pipeline
	// stage completes.
	Observer StageObserver
	// BGPair / FGPair choose the trial-pair size preference per variant
	// (zero values mean Smallest). Section 3.4: picking the largest
	// background with the smallest foreground fails when the extra
	// background structure is absent from the foreground; the opposite
	// mix leaks extra structure into the result. Set through
	// WithPairExtremes, which job specs reach via bg_pair/fg_pair.
	BGPair, FGPair Extreme
	// Classifier is the similarity classification engine used by the
	// generalization stage. Nil gets a private engine per runner.
	// Classification is stateless, so sharing one engine across runners
	// only pools its instrumentation counters.
	Classifier *Classifier
}

// StageTimes records per-stage wall-clock durations (Figures 5–10).
type StageTimes struct {
	Recording      time.Duration
	Transformation time.Duration
	Generalization time.Duration
	Comparison     time.Duration
	// Classification is the similarity-classification sub-stage of
	// generalization (both variants summed). Its time is contained in
	// Generalization, so Total must not add it a second time; it is
	// recorded separately so reports can show where generalization
	// time goes.
	Classification time.Duration
}

// Total sums the four top-level stages. Sub-stage durations
// (Classification) are already contained in their parent stage and
// are not added again.
func (t StageTimes) Total() time.Duration {
	return t.Recording + t.Transformation + t.Generalization + t.Comparison
}

// EmptyReason classifies why a benchmark produced an empty result.
type EmptyReason string

// Empty-result classifications.
const (
	// NotEmpty marks a benchmark with a non-empty target graph.
	NotEmpty EmptyReason = ""
	// ReasonNoNewStructure: foreground and background generalized to
	// similar graphs — the tool did not record the target activity.
	ReasonNoNewStructure EmptyReason = "fg similar to bg (activity not recorded)"
	// ReasonNotEmbeddable: the background could not be embedded in the
	// foreground — the target violates ProvMark's monotonicity
	// assumption (the paper's LP cells, e.g. exit and kill).
	ReasonNotEmbeddable EmptyReason = "bg not embeddable in fg (ProvMark limitation)"
)

// Result is the outcome of benchmarking one syscall under one tool.
type Result struct {
	Benchmark string
	Tool      string
	Trials    int
	// Target is the benchmark result graph (nil when Empty).
	Target *graph.Graph
	Empty  bool
	Reason EmptyReason
	// FG and BG are the generalized foreground and background graphs.
	FG, BG *graph.Graph
	// Cost is the property-mismatch cost of the bg->fg embedding.
	Cost  int
	Times StageTimes
}

// ErrInconsistentTrials is returned when no two trial graphs of some
// variant are similar (all runs failed or garbled).
var ErrInconsistentTrials = errors.New("provmark: no two consistent trial graphs")

// Runner binds a recorder to a pipeline configuration.
type Runner struct {
	rec capture.RecorderContext
	cfg Config
	cls *Classifier
}

// New builds a pipeline runner for a recorder, configured by
// functional options:
//
//	runner := provmark.New(rec, provmark.WithTrials(4), provmark.WithParallelism(2))
//	res, err := runner.RunContext(ctx, prog)
func New(rec capture.Recorder, opts ...Option) *Runner {
	return NewContext(capture.WithContext(rec), opts...)
}

// NewContext is New for a natively context-aware recorder.
func NewContext(rec capture.RecorderContext, opts ...Option) *Runner {
	cfg := Config{}
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Runner{rec: rec, cfg: cfg, cls: orNewClassifier(cfg.Classifier)}
}

func orNewClassifier(c *Classifier) *Classifier {
	if c == nil {
		return NewClassifier()
	}
	return c
}

// observe reports a completed (or failed) stage to the observer.
func (r *Runner) observe(prog benchprog.Program, s Stage, d time.Duration, err error) {
	if r.cfg.Observer == nil {
		return
	}
	r.cfg.Observer(StageEvent{
		Benchmark: prog.Name,
		Tool:      r.rec.Name(),
		Stage:     s,
		Duration:  d,
		Err:       err,
	})
}

// RunScenario benchmarks a declarative scenario: the scenario is
// validated, compiled to a program, and run through the full pipeline.
// Inline scenarios take the same path as the registered suite.
func (r *Runner) RunScenario(ctx context.Context, s benchprog.Scenario) (*Result, error) {
	prog, err := s.Compile()
	if err != nil {
		return nil, fmt.Errorf("provmark: scenario: %w", err)
	}
	return r.RunContext(ctx, prog)
}

// RunContext benchmarks one program, honoring ctx: cancellation or
// deadline expiry aborts the run between trials (and within a trial
// for context-aware recorders) with ctx's error.
func (r *Runner) RunContext(ctx context.Context, prog benchprog.Program) (*Result, error) {
	res := &Result{Benchmark: prog.Name, Tool: r.rec.Name()}
	trials := r.cfg.Trials
	if trials <= 0 {
		trials = r.rec.DefaultTrials()
	}
	res.Trials = trials

	// Stage 1: recording.
	start := time.Now()
	bgNative, err := r.record(ctx, prog, benchprog.Background, trials)
	if err == nil {
		var fgNative []capture.Native
		fgNative, err = r.record(ctx, prog, benchprog.Foreground, trials)
		if err == nil {
			res.Times.Recording = time.Since(start)
			r.observe(prog, StageRecording, res.Times.Recording, nil)
			return r.finish(ctx, prog, res, bgNative, fgNative)
		}
	}
	r.observe(prog, StageRecording, time.Since(start), err)
	return nil, err
}

// finish runs stages 2–4 on recorded natives.
func (r *Runner) finish(ctx context.Context, prog benchprog.Program, res *Result, bgNative, fgNative []capture.Native) (*Result, error) {
	// Stage 2: transformation.
	start := time.Now()
	bgGraphs, err := r.transform(ctx, bgNative)
	if err == nil {
		var fgGraphs []*graph.Graph
		fgGraphs, err = r.transform(ctx, fgNative)
		if err == nil {
			res.Times.Transformation = time.Since(start)
			r.observe(prog, StageTransformation, res.Times.Transformation, nil)
			return r.generalizeAndCompare(prog, res, bgGraphs, fgGraphs)
		}
	}
	r.observe(prog, StageTransformation, time.Since(start), err)
	return nil, err
}

// generalizeAndCompare runs stages 3 and 4.
func (r *Runner) generalizeAndCompare(prog benchprog.Program, res *Result, bgGraphs, fgGraphs []*graph.Graph) (*Result, error) {
	// Stage 3: generalization.
	start := time.Now()
	bg, err := r.generalize(prog, bgGraphs, orSmallest(r.cfg.BGPair), &res.Times)
	if err != nil {
		err = fmt.Errorf("%w (bg of %s)", err, prog.Name)
		r.observe(prog, StageGeneralization, time.Since(start), err)
		return nil, err
	}
	fg, err := r.generalize(prog, fgGraphs, orSmallest(r.cfg.FGPair), &res.Times)
	if err != nil {
		err = fmt.Errorf("%w (fg of %s)", err, prog.Name)
		r.observe(prog, StageGeneralization, time.Since(start), err)
		return nil, err
	}
	res.Times.Generalization = time.Since(start)
	r.observe(prog, StageGeneralization, res.Times.Generalization, nil)
	res.BG, res.FG = bg, fg

	// Stage 4: comparison.
	start = time.Now()
	r.compare(res)
	res.Times.Comparison = time.Since(start)
	r.observe(prog, StageComparison, res.Times.Comparison, nil)
	return res, nil
}

// workers resolves the recording concurrency for a trial count.
func (r *Runner) workers(trials int) int {
	w := r.cfg.Parallelism
	if w < 1 {
		w = 1
	}
	if w > trials {
		w = trials
	}
	return w
}

func (r *Runner) record(ctx context.Context, prog benchprog.Program, v benchprog.Variant, trials int) ([]capture.Native, error) {
	out := make([]capture.Native, trials)
	if workers := r.workers(trials); workers > 1 {
		return r.recordParallel(ctx, prog, v, out, workers)
	}
	for t := 0; t < trials; t++ {
		n, err := r.rec.Record(ctx, prog, v, t)
		if err != nil {
			return nil, fmt.Errorf("provmark: recording: %w", err)
		}
		out[t] = n
	}
	return out, nil
}

// recordParallel fans trials out over a Pool of workers slots. A
// cancelled context stops the pool from claiming further trials; the
// context-aware recorder aborts the trials already claimed.
func (r *Runner) recordParallel(ctx context.Context, prog benchprog.Program, v benchprog.Variant, out []capture.Native, workers int) ([]capture.Native, error) {
	errs := make([]error, len(out))
	NewPool(workers).Each(ctx, len(out), func(t int) {
		out[t], errs[t] = r.rec.Record(ctx, prog, v, t)
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("provmark: recording: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("provmark: recording: %w", err)
		}
	}
	return out, nil
}

func (r *Runner) transform(ctx context.Context, natives []capture.Native) ([]*graph.Graph, error) {
	out := make([]*graph.Graph, 0, len(natives))
	for _, n := range natives {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("provmark: transformation: %w", err)
		}
		g, err := r.rec.Transform(n)
		if err != nil {
			return nil, fmt.Errorf("provmark: transformation: %w", err)
		}
		out = append(out, g)
	}
	return out, nil
}

func orSmallest(e Extreme) Extreme {
	if e == 0 {
		return Smallest
	}
	return e
}

// generalize implements the Section 3.4 strategy: optionally filter
// obviously incomplete graphs, partition trials into similarity
// classes, discard singleton classes (failed runs), pick the pair at
// the configured size extreme, and unify it.
func (r *Runner) generalize(prog benchprog.Program, trials []*graph.Graph, extreme Extreme, times *StageTimes) (*graph.Graph, error) {
	filter := r.rec.FilterGraphs()
	if r.cfg.FilterGraphs != nil {
		filter = *r.cfg.FilterGraphs
	}
	if filter {
		if c, ok := capture.AsComplete(r.rec); ok {
			// Filter into a fresh slice: reusing the caller's backing
			// array (trials[:0]) would overwrite graphs the caller may
			// still hold.
			kept := make([]*graph.Graph, 0, len(trials))
			for _, g := range trials {
				if c.CompleteGraph(g) {
					kept = append(kept, g)
				}
			}
			trials = kept
		}
	}
	g1, g2, err := r.selectPair(prog, trials, extreme, times)
	if err != nil {
		return nil, err
	}
	gen, _, err := match.GeneralizePair(g1, g2)
	if err != nil {
		return nil, fmt.Errorf("provmark: generalization: %w", err)
	}
	return gen, nil
}

// selectPair classifies the trials through the runner's engine,
// reports the classification sub-step to the observer, and
// accumulates its duration into the result's StageTimes (both
// variants' classifications sum into one Classification figure).
func (r *Runner) selectPair(prog benchprog.Program, trials []*graph.Graph, extreme Extreme, times *StageTimes) (*graph.Graph, *graph.Graph, error) {
	start := time.Now()
	classes := r.cls.Classes(trials)
	d := time.Since(start)
	if times != nil {
		times.Classification += d
	}
	r.observe(prog, StageClassification, d, nil)
	return pairFromClasses(trials, classes, extreme)
}

// pairFromClasses picks the consistent class at the configured size
// extreme and returns its first two members.
func pairFromClasses(trials []*graph.Graph, classes [][]int, extreme Extreme) (*graph.Graph, *graph.Graph, error) {
	best := -1
	for i, c := range classes {
		if len(c) < 2 {
			continue // failed run
		}
		if best < 0 {
			best = i
			continue
		}
		size, bestSize := trials[c[0]].Size(), trials[classes[best][0]].Size()
		if (extreme == Largest && size > bestSize) || (extreme != Largest && size < bestSize) {
			best = i
		}
	}
	if best < 0 {
		return nil, nil, ErrInconsistentTrials
	}
	c := classes[best]
	return trials[c[0]], trials[c[1]], nil
}

// compare performs stage 4 on a result whose FG/BG are set.
func (r *Runner) compare(res *Result) {
	if _, similar := match.Similar(res.FG, res.BG); similar {
		res.Empty = true
		res.Reason = ReasonNoNewStructure
		return
	}
	m, cost, err := match.SubgraphEmbed(res.BG, res.FG)
	if err != nil {
		res.Empty = true
		res.Reason = ReasonNotEmbeddable
		return
	}
	res.Cost = cost
	target := match.Subtract(res.FG, m)
	if target.Size() == 0 {
		res.Empty = true
		res.Reason = ReasonNoNewStructure
		return
	}
	res.Target = target
}
