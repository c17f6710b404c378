package jobs

import (
	"fmt"
	"sync"

	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
	"provmark/internal/wire"
)

// QueryStats counts POST /v1/query traffic — the query half of the
// /v1/stats surface. Matched counts queries whose goal bound at least
// one answer; Errors counts requests that failed anywhere between
// decode and evaluation.
type QueryStats struct {
	Total   int64 `json:"total"`
	Matched int64 `json:"matched"`
	Errors  int64 `json:"errors"`
}

// queryCounters is the manager-owned, concurrency-safe tally.
type queryCounters struct {
	mu sync.Mutex
	s  QueryStats
}

func (c *queryCounters) record(matched bool, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Total++
	if failed {
		c.s.Errors++
	} else if matched {
		c.s.Matched++
	}
}

func (c *queryCounters) snapshot() QueryStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// QueryStats returns a snapshot of the manager's query counters.
func (m *Manager) QueryStats() QueryStats { return m.queries.snapshot() }

// RejectedQueryError reports a rule program the static analyzer
// rejected before evaluation. Response is a complete wire response
// (matches 0, at least one error diagnostic) the server returns with
// a 422 so clients get positioned findings instead of one string.
type RejectedQueryError struct {
	Response *wire.QueryResponse
}

func (e *RejectedQueryError) Error() string {
	var first string
	errs := 0
	for _, d := range e.Response.Diagnostics {
		if d.Severity != wire.DiagError {
			continue
		}
		if errs == 0 {
			first = d.Message
		}
		errs++
	}
	return fmt.Sprintf("rules rejected by analysis: %d error(s), first: %s", errs, first)
}

// wireDiagnostics converts analyzer findings to the wire form.
// Unreachable-rule warnings are dropped: on the query path pruning is
// an optimization the caller did not opt into linting (provmark-dlint
// -goal reports them), and the warning would fire on every partly
// reusable rule library.
func wireDiagnostics(diags []analyze.Diagnostic) []wire.QueryDiagnostic {
	var out []wire.QueryDiagnostic
	for _, d := range diags {
		if d.Code == analyze.CodeUnreachableRule {
			continue
		}
		out = append(out, wire.QueryDiagnostic{
			Severity: d.Severity.String(),
			Code:     string(d.Code),
			Message:  d.Message,
			Pred:     d.Pred,
			Line:     d.Span.Line,
			Col:      d.Span.Col,
			EndCol:   d.Span.EndCol,
		})
	}
	return out
}

// EvalQuery evaluates a decoded query request against a stored cell
// result. The submitted program goes through the static analyzer
// first: analysis errors reject the request as a *RejectedQueryError
// (structured diagnostics, nothing evaluated), warnings ride along on
// the response. The accepted program is then optimized for the goal —
// pruned to the goal's dependency closure and reordered bound-first,
// which is binding-preserving — and run on the semi-naive engine over
// the selected graph's facts; the goal's deduplicated, sorted
// bindings come back in wire form. Other errors are client errors
// (bad goal, graph absent from the cell), never server faults.
func EvalQuery(req *wire.QueryRequest, res *wire.Result) (*wire.QueryResponse, error) {
	sel := req.Graph
	if sel == "" {
		sel = wire.QueryGraphTarget
	}
	var wg *wire.Graph
	switch sel {
	case wire.QueryGraphTarget:
		wg = res.Target
	case wire.QueryGraphFG:
		wg = res.FG
	case wire.QueryGraphBG:
		wg = res.BG
	default:
		return nil, fmt.Errorf("unknown graph selector %q", req.Graph)
	}
	if wg == nil {
		return nil, fmt.Errorf("cell has no %s graph (empty result?)", sel)
	}
	g, err := wg.Build()
	if err != nil {
		return nil, fmt.Errorf("materialize %s graph: %w", sel, err)
	}
	goal, err := datalog.ParseAtom(req.Goal)
	if err != nil {
		return nil, fmt.Errorf("goal: %w", err)
	}
	prog, diags := analyze.Check(req.Rules, analyze.Options{Goal: &goal})
	wireDiags := wireDiagnostics(diags)
	if analyze.HasErrors(diags) {
		return nil, &RejectedQueryError{Response: &wire.QueryResponse{
			Schema:      wire.SchemaVersion,
			Cell:        req.Cell,
			Goal:        req.Goal,
			Diagnostics: wireDiags,
		}}
	}
	rules, _ := analyze.Optimize(prog.Rules, goal)
	db := datalog.NewDatabase()
	db.LoadGraph(g)
	if err := db.Run(rules); err != nil {
		// Unreachable: analysis reports every rejection Run makes
		// (its own verdicts, arity fuzzed); kept out of caution.
		return nil, err
	}
	bindings := db.Query(goal)
	return &wire.QueryResponse{
		Schema:      wire.SchemaVersion,
		Cell:        req.Cell,
		Goal:        req.Goal,
		Matches:     len(bindings),
		Bindings:    bindings,
		Derived:     db.Stats().Derived,
		Diagnostics: wireDiags,
	}, nil
}
