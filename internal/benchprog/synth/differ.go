package synth

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/provmark"

	// The differ resolves its tools through the capture registry.
	_ "provmark/internal/capture/camflow"
	_ "provmark/internal/capture/opus"
	_ "provmark/internal/capture/spade"
)

// DefaultTools is the paper's Table 2 tool column order.
var DefaultTools = []string{"spade", "opus", "camflow"}

// Tool-outcome statuses. Cross-tool fingerprints always differ (each
// tool has its own node/edge vocabulary), so expressiveness agreement
// is judged the way Table 2 judges it: did the tool record the target
// activity at all, did it come back empty, or did the pipeline fail.
const (
	StatusRecorded = "recorded"
	StatusEmpty    = "empty"
	StatusError    = "error"
)

// ToolOutcome is one tool's verdict on one scenario.
type ToolOutcome struct {
	Tool   string `json:"tool"`
	Status string `json:"status"`
	// Detail carries the empty-reason or pipeline error text.
	Detail string `json:"detail,omitempty"`
	// Nodes/Edges size the target graph when Status is "recorded".
	Nodes int `json:"nodes,omitempty"`
	Edges int `json:"edges,omitempty"`
}

// Verdict is the cross-tool expressiveness comparison of one scenario.
type Verdict struct {
	Scenario  string        `json:"scenario"`
	Outcomes  []ToolOutcome `json:"outcomes"`
	Divergent bool          `json:"divergent"`
}

// Signature renders the status vector as a stable string,
// tool-alphabetical ("camflow=empty;opus=recorded;spade=recorded") —
// the identity the shrinker must preserve and the campaign dedups on.
func (v *Verdict) Signature() string {
	parts := make([]string, 0, len(v.Outcomes))
	for _, o := range v.Outcomes {
		parts = append(parts, o.Tool+"="+o.Status)
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// DifferOptions configures a Differ.
type DifferOptions struct {
	// Tools to compare (default DefaultTools).
	Tools []string
	// Trials per variant (default 2 — the simulated kernel is
	// deterministic, so two trials always form a consistent pair).
	Trials int
	// Fast selects cheap storage costs (skip the Neo4j warm-up
	// simulation); campaigns run thousands of cells and want it on.
	Fast bool
}

// Differ runs one scenario through every configured capture tool via
// the unchanged four-stage pipeline and classifies agreement.
type Differ struct {
	tools   []string
	runners []*provmark.Runner
}

// NewDiffer opens the configured tools through the capture registry.
func NewDiffer(opts DifferOptions) (*Differ, error) {
	tools := opts.Tools
	if len(tools) == 0 {
		tools = DefaultTools
	}
	trials := opts.Trials
	if trials <= 0 {
		trials = 2
	}
	d := &Differ{tools: append([]string(nil), tools...)}
	for _, tool := range tools {
		rec, err := capture.OpenContext(tool, capture.Options{Fast: opts.Fast})
		if err != nil {
			return nil, fmt.Errorf("synth: differ: %w", err)
		}
		d.runners = append(d.runners, provmark.NewContext(rec, provmark.WithTrials(trials)))
	}
	return d, nil
}

// Tools lists the differ's tool columns in configured order.
func (d *Differ) Tools() []string { return append([]string(nil), d.tools...) }

// Diff compiles the scenario once (a compile failure is the caller's
// bug, not a tool divergence) and benchmarks it under every tool. A
// per-tool pipeline failure becomes a StatusError outcome rather than
// aborting the comparison — a tool whose pipeline cannot digest a
// scenario that the others record fine is itself an expressiveness
// divergence. Only context cancellation aborts.
func (d *Differ) Diff(ctx context.Context, scn benchprog.Scenario) (*Verdict, error) {
	if _, err := scn.Compile(); err != nil {
		return nil, err
	}
	v := &Verdict{Scenario: scn.Name}
	for i, tool := range d.tools {
		res, err := d.runners[i].RunScenario(ctx, scn)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		out := ToolOutcome{Tool: tool}
		switch {
		case err != nil:
			out.Status = StatusError
			out.Detail = err.Error()
		case res.Empty:
			out.Status = StatusEmpty
			out.Detail = string(res.Reason)
		default:
			out.Status = StatusRecorded
			out.Nodes = res.Target.NumNodes()
			out.Edges = res.Target.NumEdges()
		}
		v.Outcomes = append(v.Outcomes, out)
	}
	for _, o := range v.Outcomes[1:] {
		if o.Status != v.Outcomes[0].Status {
			v.Divergent = true
			break
		}
	}
	return v, nil
}
