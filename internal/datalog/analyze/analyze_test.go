package analyze_test

import (
	"encoding/json"
	"errors"
	"testing"

	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
)

func mustParse(t *testing.T, src string) *analyze.Program {
	t.Helper()
	prog, diags := analyze.ParseSource(src)
	if len(diags) != 0 {
		t.Fatalf("unexpected parse diagnostics: %v", diags)
	}
	return prog
}

// TestSpans pins the byte attribution on lines with the hostile cases:
// quoted ":-", quoted comma, quoted dot, leading space, and white space
// beyond space and tab (a vertical tab after the terminating dot, a
// no-break space before a body atom), which the parser trims.
func TestSpans(t *testing.T) {
	cases := []struct {
		line string
		head string
		body []string
	}{
		{`  out(X) :- prop(X, ":-", "a,b"), node(X, "end.").`, "out(X)", []string{`prop(X, ":-", "a,b")`, `node(X, "end.")`}},
		{`p(X) :- node(X, "a").` + "\v", "p(X)", []string{`node(X, "a")`}},
		{"p(X) :- \u00a0node(X, \"a\"),\u00a0not q(X).", "p(X)", []string{`node(X, "a")`, "not q(X)"}},
	}
	for _, tc := range cases {
		prog := mustParse(t, tc.line+"\n")
		if len(prog.Rules) != 1 || len(prog.Rules[0].Body) != len(tc.body) {
			t.Fatalf("%q parsed to %+v", tc.line, prog.Rules)
		}
		s := prog.Sources[0]
		if s.Line != 1 {
			t.Errorf("%q: line = %d", tc.line, s.Line)
		}
		if got := tc.line[s.Head.Col-1 : s.Head.EndCol-1]; got != tc.head {
			t.Errorf("%q: head span = %q, want %q", tc.line, got, tc.head)
		}
		for i, want := range tc.body {
			if got := tc.line[s.Body[i].Col-1 : s.Body[i].EndCol-1]; got != want {
				t.Errorf("%q: body[%d] span = %q, want %q", tc.line, i, got, want)
			}
		}
	}
}

// TestSpanLineNumbers: diagnostics land on the right source lines when
// comments and blanks are interleaved.
func TestSpanLineNumbers(t *testing.T) {
	src := "% comment\n\nout(X) :- ghost(X).\n"
	_, diags := analyze.Check(src, analyze.Options{})
	if len(diags) == 0 {
		t.Fatal("expected diagnostics")
	}
	for _, d := range diags {
		if d.Span.Line != 3 {
			t.Errorf("diagnostic %s on line %d, want 3", d.Code, d.Span.Line)
		}
	}
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, sev := range []analyze.Severity{analyze.Warning, analyze.Error} {
		data, err := json.Marshal(sev)
		if err != nil {
			t.Fatal(err)
		}
		var back analyze.Severity
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != sev {
			t.Errorf("round trip %v -> %s -> %v", sev, data, back)
		}
	}
	var bad analyze.Severity
	if err := json.Unmarshal([]byte(`"fatal"`), &bad); err == nil {
		t.Error("unknown severity accepted")
	}
}

// TestGoalArityAndUndefined: goal-level checks have no rule position.
func TestGoalArityAndUndefined(t *testing.T) {
	src := "out(X) :- node(X, \"a\").\n"
	goal, _ := datalog.ParseAtom("out(X, Y)")
	_, diags := analyze.Check(src, analyze.Options{Goal: &goal})
	if !analyze.HasErrors(diags) {
		t.Fatalf("wrong-arity goal not an error: %v", diags)
	}
	ghost, _ := datalog.ParseAtom("ghost(X)")
	_, diags = analyze.Check(src, analyze.Options{Goal: &ghost})
	found := false
	for _, d := range diags {
		if d.Code == analyze.CodeUndefinedPredicate && d.Pred == "ghost" {
			found = true
		}
	}
	if !found {
		t.Errorf("undefined goal predicate not reported: %v", diags)
	}
}

// TestReorderBodies pins the bound-first rewrite on the canonical
// shape: a selective constant-bearing atom moves ahead of a full scan,
// and negation floats to the earliest point where it is ground.
func TestReorderBodies(t *testing.T) {
	rules, err := datalog.ParseRules(`start(P) :- edge(_, P, _, _), node(P, "root").
guard(P) :- edge(_, P, Q, _), not node(Q, "ok"), node(P, "root").
stable(X, Y) :- edge(_, X, Y, _), node(X, "a").
`)
	if err != nil {
		t.Fatal(err)
	}
	out, changed := analyze.ReorderBodies(rules)
	if changed != 3 {
		t.Fatalf("changed = %d, want 3", changed)
	}
	// Rule 1: node(P, "root") has one bound position (the constant),
	// edge has zero — node comes first.
	if got := out[0].String(); got != `start(P) :- node(P,"root"), edge(_,P,_,_).` {
		t.Errorf("rule 1 reordered to %s", got)
	}
	// Rule 2: node(P,"root") first, then the negation is still not
	// ground (Q unbound) so edge joins next, then the negation.
	if got := out[1].String(); got != `guard(P) :- node(P,"root"), edge(_,P,Q,_), not node(Q,"ok").` {
		t.Errorf("rule 2 reordered to %s", got)
	}
	// Rule 3: initial scores are edge=0, node=1 (the constant), so
	// node fronts here too.
	if got := out[2].String(); got != `stable(X,Y) :- node(X,"a"), edge(_,X,Y,_).` {
		t.Errorf("rule 3 reordered to %s", got)
	}
	// Already bound-first input comes back unchanged.
	again, changed := analyze.ReorderBodies(out)
	if changed != 0 {
		t.Errorf("reordering is not idempotent: %d rules changed", changed)
	}
	for i := range again {
		if again[i].String() != out[i].String() {
			t.Errorf("rule %d drifted on second pass: %s", i, again[i])
		}
	}
}

// TestPruneForGoal: rules outside the goal closure go, and negated
// dependencies keep their defining rules.
func TestPruneForGoal(t *testing.T) {
	rules, err := datalog.ParseRules(`esc(P) :- node(P, "activity").
blocked(P) :- prop(P, "k", "v").
safe(P) :- esc(P), not blocked(P).
noise(X) :- edge(_, X, _, _).
`)
	if err != nil {
		t.Fatal(err)
	}
	pruned := analyze.PruneForGoal(rules, "safe")
	if len(pruned) != 3 {
		t.Fatalf("kept %d rules, want 3 (esc, blocked, safe): %v", len(pruned), pruned)
	}
	for _, r := range pruned {
		if r.Head.Pred == "noise" {
			t.Error("noise survived pruning")
		}
	}
	// Pruning for a base-predicate goal keeps nothing.
	if got := analyze.PruneForGoal(rules, "node"); len(got) != 0 {
		t.Errorf("base goal kept %d rules", len(got))
	}
}

// TestCatalogueCoversCodes: the catalogue and the analyzer agree on
// the closed code set (every code constant appears exactly once).
func TestCatalogueCoversCodes(t *testing.T) {
	seen := map[analyze.Code]bool{}
	for _, e := range analyze.Catalogue() {
		if seen[e.Code] {
			t.Errorf("duplicate catalogue entry %s", e.Code)
		}
		seen[e.Code] = true
		if e.Summary == "" {
			t.Errorf("catalogue entry %s lacks a summary", e.Code)
		}
	}
	if len(seen) != 12 {
		t.Errorf("catalogue has %d entries, want 12", len(seen))
	}
}

// TestAnalysisMatchesEngineAcceptance: on each unsafe fixture shape the
// analyzer reports an error exactly when the engine rejects Run, and
// Run's *datalog.Violation names the rule of the analyzer's first error
// diagnostic and the atom of its first diagnostic with the matching
// code. (The first error overall can sit on another atom of that rule:
// in neg(X) the head's unbound X sorts before the body's negation,
// which the engine detects first.)
func TestAnalysisMatchesEngineAcceptance(t *testing.T) {
	cases := []string{
		`not bad(X) :- node(X, "a").`,
		`head(_) :- node(X, "a").`,
		`orphan(Y) :- node(X, "a").`,
		`neg(X) :- not node(X, "a").`,
		`move(X, Y) :- edge(_, X, Y, _).
win(X) :- move(X, Y), not win(Y).`,
		// Negation bound by a *later* positive atom: engine requires
		// written-order boundness, so this must be an error too.
		`late(X) :- not ghost(X), node(X, "a").
ghost(X) :- node(X, "g").`,
		`clean(X) :- node(X, "a").
unsafe(X) :- clean(X), not edge(_, X, Y, _).`,
	}
	codes := map[datalog.ViolationKind]analyze.Code{
		datalog.NegatedHead:          analyze.CodeNegatedHead,
		datalog.WildcardHead:         analyze.CodeWildcardHead,
		datalog.UnboundHeadVar:       analyze.CodeUnboundHeadVar,
		datalog.UnboundNegationVar:   analyze.CodeUnboundNegationVar,
		datalog.UnstratifiedNegation: analyze.CodeUnstratifiedNegation,
	}
	for _, src := range cases {
		prog, diags := analyze.Check(src, analyze.Options{})
		if !analyze.HasErrors(diags) {
			t.Errorf("no analysis error for:\n%s", src)
			continue
		}
		db := datalog.NewDatabase()
		err := db.Run(prog.Rules)
		var v *datalog.Violation
		if !errors.As(err, &v) {
			t.Errorf("Run = %v, want a *datalog.Violation for:\n%s", err, src)
			continue
		}
		var first, sameCode *analyze.Diagnostic
		for i := range diags {
			if d := &diags[i]; d.Severity == analyze.Error {
				if first == nil {
					first = d
				}
				if sameCode == nil && d.Code == codes[v.Kind] {
					sameCode = d
				}
			}
		}
		if first.Rule != v.Rule {
			t.Errorf("Run blames rule %d, analyzer's first error is on rule %d:\n%s", v.Rule, first.Rule, src)
		}
		if sameCode == nil {
			t.Errorf("no %s diagnostic for Run's %v:\n%s", codes[v.Kind], v, src)
			continue
		}
		want := prog.Sources[v.Rule].Head
		if v.Atom >= 0 {
			want = prog.Sources[v.Rule].Body[v.Atom]
		}
		if sameCode.Rule != v.Rule || sameCode.Span != want {
			t.Errorf("Run blames rule %d atom %d (%v), analyzer's %s is on rule %d at %v:\n%s",
				v.Rule, v.Atom, want, sameCode.Code, sameCode.Rule, sameCode.Span, src)
		}
	}
}
