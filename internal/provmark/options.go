package provmark

import "time"

// Stage identifies one of the four Figure 3 pipeline stages.
type Stage int

// Pipeline stages, in execution order.
const (
	StageRecording Stage = iota + 1
	StageTransformation
	StageGeneralization
	StageComparison
	// StageClassification is the similarity-classification sub-step of
	// the generalization stage (appended after the paper's four stages
	// so existing stage numbering is stable). Its durations are already
	// included in the StageGeneralization totals; observers that sum
	// stages must skip sub-stages (see Substage).
	StageClassification
)

// Substage reports whether the stage is a sub-step whose duration is
// contained in a top-level stage's event. Observers summing stage
// durations to a pipeline total must skip sub-stage events or the
// contained time is double-counted.
func (s Stage) Substage() bool { return s == StageClassification }

// String names the stage as the paper does.
func (s Stage) String() string {
	switch s {
	case StageRecording:
		return "recording"
	case StageTransformation:
		return "transformation"
	case StageGeneralization:
		return "generalization"
	case StageComparison:
		return "comparison"
	case StageClassification:
		return "classification"
	}
	return "unknown"
}

// StageEvent is one observer notification: a pipeline stage finished
// (or failed) for one benchmark under one tool.
type StageEvent struct {
	// Benchmark and Tool identify the matrix cell.
	Benchmark string
	Tool      string
	// Stage is the pipeline stage that just completed.
	Stage Stage
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// Err is non-nil when the stage failed (the run aborts after a
	// failed stage, so at most one event per cell carries an error).
	Err error
}

// StageObserver receives stage-completion events. Observers are called
// synchronously from the pipeline goroutine of the cell, so a matrix
// run with parallel workers invokes the observer concurrently — it
// must be safe for concurrent use and should return quickly.
type StageObserver func(StageEvent)

// Option configures a pipeline Runner (and, through Matrix.Pipeline,
// every cell of a matrix run).
type Option func(*Config)

// WithTrials sets the number of recording trials per variant; n <= 0
// selects the recorder's default.
func WithTrials(n int) Option {
	return func(c *Config) { c.Trials = n }
}

// WithParallelism bounds the number of concurrent recording workers
// within one pipeline run; k <= 1 records sequentially. Each trial
// runs in its own simulated kernel, so trials are independent;
// recorders must be safe for concurrent Record calls.
func WithParallelism(k int) Option {
	return func(c *Config) { c.Parallelism = k }
}

// WithFilterGraphs overrides the recorder's default graph-filtering
// behaviour (the config.ini filtergraphs flag).
func WithFilterGraphs(filter bool) Option {
	return func(c *Config) { c.FilterGraphs = &filter }
}

// WithPairExtremes chooses the trial-pair size preference per variant
// (Section 3.4); zero values mean Smallest.
func WithPairExtremes(bg, fg Extreme) Option {
	return func(c *Config) { c.BGPair, c.FGPair = bg, fg }
}

// WithClassifier installs a similarity classification engine, so a
// caller can read its counters. Runners created with the same engine
// pool their counts; classification itself shares nothing. A nil
// engine is ignored (each runner then gets a private one).
func WithClassifier(c *Classifier) Option {
	return func(cfg *Config) {
		if c != nil {
			cfg.Classifier = c
		}
	}
}

// WithStageObserver installs a per-stage completion hook; successive
// calls chain, all installed observers run.
func WithStageObserver(fn StageObserver) Option {
	return func(c *Config) {
		if fn == nil {
			return
		}
		prev := c.Observer
		if prev == nil {
			c.Observer = fn
			return
		}
		c.Observer = func(ev StageEvent) {
			prev(ev)
			fn(ev)
		}
	}
}
