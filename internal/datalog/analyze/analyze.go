// Package analyze is the static analyzer and optimizer for Datalog
// rule programs. It treats the rule language of internal/datalog as a
// compilation target with its own pass pipeline: parse once with
// source positions, diagnose precisely (structured, positioned
// diagnostics instead of the engine's first-error-wins strings), then
// hand a provably-equivalent optimized program to the engine.
//
// Two kinds of output:
//
//   - Diagnostics. Error-severity findings are exactly the programs
//     the evaluation engine rejects: unsafe rules and unstratified
//     negation, taken from the engine's own verdicts
//     (datalog.Violations), and inconsistent arities, which the
//     analyzer checks itself (FuzzAnalyzeRules holds it to Run).
//     Warning-severity findings are suspicious but evaluable:
//     undefined or dead predicates, always-empty rules, cartesian
//     products, goal-unreachable rules. A program with no Error
//     diagnostics always Runs without error.
//
//   - Optimized programs (optimize.go). Goal-directed relevance
//     pruning drops rules that cannot contribute to a query goal, and
//     bound-first body reordering fronts literals whose arguments are
//     already bound. Both passes are semantics-preserving: the goal's
//     bindings are byte-identical to the unoptimized evaluation.
package analyze

import (
	"encoding/json"
	"fmt"
	"sort"

	"provmark/internal/datalog"
)

// Severity ranks a diagnostic.
type Severity int

const (
	// Warning marks a suspicious construct the engine still accepts.
	Warning Severity = iota
	// Error marks a defect: the engine rejects the program, or the
	// construct is meaningless (inconsistent arities never join).
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its name, the stable wire form.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the names MarshalJSON emits.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("analyze: unknown severity %q", name)
	}
	return nil
}

// Code identifies a diagnostic class; the catalogue below is the
// closed set.
type Code string

const (
	// CodeParseError: the line is not a rule in the concrete syntax.
	CodeParseError Code = "parse-error"
	// CodeNegatedHead: the rule head is negated.
	CodeNegatedHead Code = "negated-head"
	// CodeWildcardHead: the rule head contains the _ wildcard.
	CodeWildcardHead Code = "wildcard-head"
	// CodeUnboundHeadVar: a head variable no positive body atom binds.
	CodeUnboundHeadVar Code = "unbound-head-var"
	// CodeUnboundNegationVar: a variable under negation not bound by a
	// preceding positive atom (negation is only safe on ground atoms).
	CodeUnboundNegationVar Code = "unbound-negation-var"
	// CodeUnstratifiedNegation: recursion through negation.
	CodeUnstratifiedNegation Code = "unstratified-negation"
	// CodeArityMismatch: a predicate used with inconsistent arities.
	CodeArityMismatch Code = "arity-mismatch"
	// CodeUndefinedPredicate: a body (or goal) predicate that no rule
	// derives and that is not a base predicate.
	CodeUndefinedPredicate Code = "undefined-predicate"
	// CodeUnusedPredicate: a derived predicate unreachable from every
	// output (a predicate no rule body consumes) — dead code.
	CodeUnusedPredicate Code = "unused-predicate"
	// CodeAlwaysEmptyRule: a rule that can never fire because a
	// positive body atom's predicate is provably empty.
	CodeAlwaysEmptyRule Code = "always-empty-rule"
	// CodeUnreachableRule: a rule the query goal cannot reach;
	// goal-directed evaluation prunes it.
	CodeUnreachableRule Code = "unreachable-rule"
	// CodeCartesianProduct: a body atom sharing no variables with the
	// rest of the body — the join degenerates to a cross product.
	CodeCartesianProduct Code = "cartesian-product"
)

// CatalogueEntry documents one diagnostic class — the source of the
// README's catalogue table (drift-guarded by readme_test.go).
type CatalogueEntry struct {
	Code     Code
	Severity Severity
	Summary  string
}

// Catalogue lists every diagnostic class the analyzer can emit, in
// documentation order: errors first, then warnings.
func Catalogue() []CatalogueEntry {
	return []CatalogueEntry{
		{CodeParseError, Error, "line is not a rule in the concrete syntax"},
		{CodeNegatedHead, Error, "rule head is negated"},
		{CodeWildcardHead, Error, "rule head contains the `_` wildcard"},
		{CodeUnboundHeadVar, Error, "head variable not bound by any positive body atom"},
		{CodeUnboundNegationVar, Error, "variable under negation not bound by a preceding positive atom"},
		{CodeUnstratifiedNegation, Error, "recursion through negation (no stratification exists)"},
		{CodeArityMismatch, Error, "predicate used with inconsistent arities (such atoms can never join)"},
		{CodeUndefinedPredicate, Warning, "predicate is neither derived by any rule nor a base predicate"},
		{CodeUnusedPredicate, Warning, "derived predicate unreachable from every output predicate (dead code)"},
		{CodeAlwaysEmptyRule, Warning, "rule can never fire: a positive body atom is provably empty"},
		{CodeUnreachableRule, Warning, "rule unreachable from the query goal (goal-directed evaluation prunes it)"},
		{CodeCartesianProduct, Warning, "body atom shares no variables with the rest of the body (cross product)"},
	}
}

// Span locates a diagnostic in the rule source: 1-based line and byte
// columns, EndCol exclusive. A zero Line means program-level (no
// single source position).
type Span struct {
	Line   int `json:"line"`
	Col    int `json:"col"`
	EndCol int `json:"end_col"`
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Severity Severity `json:"severity"`
	Code     Code     `json:"code"`
	Message  string   `json:"message"`
	// Pred names the subject predicate when the finding is about one.
	Pred string `json:"pred,omitempty"`
	// Rule indexes Program.Rules; -1 for program-level findings.
	Rule int  `json:"rule"`
	Span Span `json:"span"`
}

// HasErrors reports whether any diagnostic has Error severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// DefaultBase is the base-fact vocabulary of provenance graphs:
// node/2 (id, label), edge/4 (id, src, tgt, label), prop/3 (elem,
// key, value) — what Database.LoadGraph asserts.
func DefaultBase() map[string]int {
	return map[string]int{"node": 2, "edge": 4, "prop": 3}
}

// Options configures an analysis.
type Options struct {
	// Base maps base predicates to their arities; nil means
	// DefaultBase(). Base predicates are assumed non-empty.
	Base map[string]int
	// Goal, when set, is the query goal: its predicate and arity are
	// checked, and rules the goal cannot reach are reported as
	// unreachable (the predicate-level unused pass is skipped — the
	// goal is the only output).
	Goal *datalog.Atom
}

func (o Options) base() map[string]int {
	if o.Base != nil {
		return o.Base
	}
	return DefaultBase()
}

// Check parses and analyzes a rule source in one call, returning the
// program alongside the combined, position-sorted diagnostics — the
// entry point shared by provmark-dlint, the CLIs and /v1/query.
func Check(src string, opts Options) (*Program, []Diagnostic) {
	prog, diags := ParseSource(src)
	diags = append(diags, prog.Analyze(opts)...)
	sortDiagnostics(diags)
	return prog, diags
}

// Analyze runs every analysis pass over the program and returns the
// position-sorted diagnostics. Parse diagnostics (from ParseSource)
// are not repeated here; Check combines both.
func (p *Program) Analyze(opts Options) []Diagnostic {
	a := &analysis{prog: p, base: opts.base(), goal: opts.Goal}
	a.checkViolations()
	a.checkArities()
	a.checkDefined()
	a.checkAlwaysEmpty()
	a.checkCartesian()
	if opts.Goal != nil {
		a.checkReachable()
	} else {
		a.checkUnused()
	}
	sortDiagnostics(a.diags)
	return a.diags
}

// analysis carries the shared pass state.
type analysis struct {
	prog  *Program
	base  map[string]int
	goal  *datalog.Atom
	diags []Diagnostic
}

// atomHead addresses a rule's head, as datalog.Violation.Atom does.
const atomHead = -1

// report files a diagnostic for rule ri at body atom atom, or at the
// head for atomHead.
func (a *analysis) report(sev Severity, code Code, ri, atom int, pred, msg string) {
	d := Diagnostic{Severity: sev, Code: code, Message: msg, Pred: pred, Rule: ri}
	if ri >= 0 && ri < len(a.prog.Sources) {
		src := a.prog.Sources[ri]
		d.Span = src.Head
		if atom >= 0 && atom < len(src.Body) {
			d.Span = src.Body[atom]
		}
		if d.Span.Line == 0 {
			d.Span.Line = src.Line
		}
	}
	a.diags = append(a.diags, d)
}

// checkViolations reports the engine's own safety and stratification
// verdicts (datalog.Violations), one diagnostic per violation, so an
// analysis-clean program is never rejected by Run for either.
func (a *analysis) checkViolations() {
	for _, v := range datalog.Violations(a.prog.Rules) {
		r := a.prog.Rules[v.Rule]
		var code Code
		var msg string
		pred := r.Head.Pred
		switch v.Kind {
		case datalog.NegatedHead:
			code, msg = CodeNegatedHead, fmt.Sprintf("rule head %s is negated", r.Head)
		case datalog.WildcardHead:
			code, msg = CodeWildcardHead, fmt.Sprintf("wildcard in rule head %s", r.Head)
		case datalog.UnboundHeadVar:
			code, msg = CodeUnboundHeadVar, fmt.Sprintf("head variable %s in %s is not bound by any positive body atom", v.Var, r.Head)
		case datalog.UnboundNegationVar:
			pred = r.Body[v.Atom].Pred
			code, msg = CodeUnboundNegationVar, fmt.Sprintf("variable %s under negation in %s is not bound by a preceding positive atom", v.Var, r.Body[v.Atom])
		case datalog.UnstratifiedNegation:
			pred = v.Pred
			code, msg = CodeUnstratifiedNegation, fmt.Sprintf("recursion through negation: %s cannot be stratified", v.Pred)
		}
		a.report(Error, code, v.Rule, v.Atom, pred, msg)
	}
}

// checkArities enforces one arity per predicate. Base predicates are
// fixed by Options; every other predicate's first use (heads before
// bodies, rule order) is canonical.
func (a *analysis) checkArities() {
	type first struct {
		arity int
		line  int
	}
	seen := map[string]first{}
	for pred, arity := range a.base {
		seen[pred] = first{arity: arity, line: 0}
	}
	check := func(ri, atom int, at datalog.Atom) {
		f, ok := seen[at.Pred]
		if !ok {
			line := 0
			if ri < len(a.prog.Sources) {
				line = a.prog.Sources[ri].Line
			}
			seen[at.Pred] = first{arity: len(at.Terms), line: line}
			return
		}
		if len(at.Terms) == f.arity {
			return
		}
		if f.line == 0 && a.base[at.Pred] == f.arity {
			a.report(Error, CodeArityMismatch, ri, atom, at.Pred,
				fmt.Sprintf("%s used with arity %d, but %s is a base predicate with arity %d", at.Pred, len(at.Terms), at.Pred, f.arity))
			return
		}
		a.report(Error, CodeArityMismatch, ri, atom, at.Pred,
			fmt.Sprintf("%s used with arity %d, but arity %d at line %d", at.Pred, len(at.Terms), f.arity, f.line))
	}
	for ri, r := range a.prog.Rules {
		check(ri, atomHead, r.Head)
	}
	for ri, r := range a.prog.Rules {
		for ai, at := range r.Body {
			check(ri, ai, at)
		}
	}
	if a.goal != nil {
		if f, ok := seen[a.goal.Pred]; ok && len(a.goal.Terms) != f.arity {
			a.diags = append(a.diags, Diagnostic{
				Severity: Error, Code: CodeArityMismatch, Pred: a.goal.Pred, Rule: -1,
				Message: fmt.Sprintf("goal %s has arity %d, but %s has arity %d", a.goal, len(a.goal.Terms), a.goal.Pred, f.arity),
			})
		}
	}
}

// checkDefined flags body predicates that no rule derives and that are
// not base predicates — their extent is empty by construction, so any
// positive use can never match (and any negated use always holds).
// Each predicate is reported once, at its first use.
func (a *analysis) checkDefined() {
	defined := map[string]bool{}
	for _, r := range a.prog.Rules {
		defined[r.Head.Pred] = true
	}
	reported := map[string]bool{}
	for ri, r := range a.prog.Rules {
		for ai, at := range r.Body {
			if defined[at.Pred] || a.base[at.Pred] != 0 || reported[at.Pred] {
				continue
			}
			reported[at.Pred] = true
			msg := fmt.Sprintf("%s is never defined: no rule derives it and it is not a base predicate", at.Pred)
			if at.Negated {
				msg += " (this negation always holds)"
			}
			a.report(Warning, CodeUndefinedPredicate, ri, ai, at.Pred, msg)
		}
	}
	if a.goal != nil && !defined[a.goal.Pred] && a.base[a.goal.Pred] == 0 {
		a.diags = append(a.diags, Diagnostic{
			Severity: Warning, Code: CodeUndefinedPredicate, Pred: a.goal.Pred, Rule: -1,
			Message: fmt.Sprintf("goal predicate %s is never defined: no rule derives it and it is not a base predicate", a.goal.Pred),
		})
	}
}

// checkAlwaysEmpty computes the least fixpoint of "possibly derives a
// fact": base predicates and heads of rules whose positive body atoms
// are all derivable. Rules outside the fixpoint can never fire.
func (a *analysis) checkAlwaysEmpty() {
	derivable := map[string]bool{}
	for pred := range a.base {
		derivable[pred] = true
	}
	fires := func(r datalog.Rule) (bool, int) {
		for ai, at := range r.Body {
			if !at.Negated && !derivable[at.Pred] {
				return false, ai
			}
		}
		return true, -1
	}
	for changed := true; changed; {
		changed = false
		for _, r := range a.prog.Rules {
			if ok, _ := fires(r); ok && !derivable[r.Head.Pred] {
				derivable[r.Head.Pred] = true
				changed = true
			}
		}
	}
	for ri, r := range a.prog.Rules {
		if ok, ai := fires(r); !ok {
			a.report(Warning, CodeAlwaysEmptyRule, ri, ai, r.Head.Pred,
				fmt.Sprintf("rule for %s can never fire: %s is always empty", r.Head.Pred, r.Body[ai].Pred))
		}
	}
}

// checkCartesian flags body atoms that share no variables with the
// rest of the body: the join degenerates to a cross product. Sharing
// is transitive (a(X), b(Y) connect through c(X,Y)), so atoms are
// grouped into components by union-find over their variables first.
func (a *analysis) checkCartesian() {
	for ri, r := range a.prog.Rules {
		// Union-find over the positive, variable-bearing atoms.
		var idx []int // body indices of participating atoms
		parent := map[int]int{}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		varAtom := map[string]int{}
		for ai, at := range r.Body {
			if at.Negated {
				continue
			}
			hasVar := false
			for _, t := range at.Terms {
				if t.Var != "" {
					hasVar = true
				}
			}
			if !hasVar {
				continue
			}
			idx = append(idx, ai)
			parent[ai] = ai
			for _, t := range at.Terms {
				if t.Var == "" {
					continue
				}
				if prev, ok := varAtom[t.Var]; ok {
					parent[find(ai)] = find(prev)
				} else {
					varAtom[t.Var] = ai
				}
			}
		}
		if len(idx) < 2 {
			continue
		}
		seen := map[int]bool{}
		for _, ai := range idx {
			root := find(ai)
			if seen[root] {
				continue
			}
			if len(seen) > 0 {
				a.report(Warning, CodeCartesianProduct, ri, ai, r.Body[ai].Pred,
					fmt.Sprintf("%s shares no variables with the rest of the body of %s (cartesian product)", r.Body[ai], r.Head.Pred))
			}
			seen[root] = true
		}
	}
}

// checkUnused (no goal): outputs are the derived predicates no rule
// body consumes; a derived predicate unreachable from every output is
// dead code — only possible inside consumer-less cycles. Reported once
// per predicate, at its first defining rule.
func (a *analysis) checkUnused() {
	used := map[string]bool{}
	for _, r := range a.prog.Rules {
		for _, at := range r.Body {
			used[at.Pred] = true
		}
	}
	outputs := map[string]bool{}
	for _, r := range a.prog.Rules {
		if !used[r.Head.Pred] {
			outputs[r.Head.Pred] = true
		}
	}
	relevant := reachable(a.prog.Rules, outputs)
	reported := map[string]bool{}
	for ri, r := range a.prog.Rules {
		pred := r.Head.Pred
		if relevant[pred] || reported[pred] {
			continue
		}
		reported[pred] = true
		a.report(Warning, CodeUnusedPredicate, ri, atomHead, pred,
			fmt.Sprintf("derived predicate %s is unreachable from every output predicate (dead code)", pred))
	}
}

// checkReachable (goal given): rules whose head the goal's dependency
// closure does not contain cannot contribute to the answer;
// goal-directed evaluation prunes them.
func (a *analysis) checkReachable() {
	closure := reachable(a.prog.Rules, map[string]bool{a.goal.Pred: true})
	for ri, r := range a.prog.Rules {
		if closure[r.Head.Pred] {
			continue
		}
		a.report(Warning, CodeUnreachableRule, ri, atomHead, r.Head.Pred,
			fmt.Sprintf("rule for %s is unreachable from goal %s: goal-directed evaluation prunes it", r.Head.Pred, a.goal))
	}
}

// reachable computes the predicate dependency closure of a seed set:
// every predicate a seed can read, transitively, through rule bodies
// (positive and negated — negation still reads the extent).
func reachable(rules []datalog.Rule, seeds map[string]bool) map[string]bool {
	out := make(map[string]bool, len(seeds))
	for s := range seeds {
		out[s] = true
	}
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			if !out[r.Head.Pred] {
				continue
			}
			for _, at := range r.Body {
				if !out[at.Pred] {
					out[at.Pred] = true
					changed = true
				}
			}
		}
	}
	return out
}

// sortDiagnostics orders findings for deterministic output: by source
// position, then severity (errors first), code, and message.
func sortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Span.Line != b.Span.Line {
			return a.Span.Line < b.Span.Line
		}
		if a.Span.Col != b.Span.Col {
			return a.Span.Col < b.Span.Col
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}
