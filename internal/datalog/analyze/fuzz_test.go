package analyze_test

import (
	"reflect"
	"strings"
	"testing"
	"unicode"

	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
)

// FuzzAnalyzeRules drives the analyzer with arbitrary rule text and
// enforces its contracts: it never panics; every rule's spans cover
// exactly its atoms (checkSpans); it reports arity-mismatch exactly
// when Run rejects the program with an arity mismatch; and a program
// it passes as error-free is never rejected by the engine — neither as
// written nor after goal-directed optimization, and the optimized
// bindings match the unoptimized ones on a small fact set.
func FuzzAnalyzeRules(f *testing.F) {
	seeds := []string{
		"",
		"% only a comment\n",
		`anc(X, Y) :- edge(_, X, Y, _).` + "\n" + `anc(X, Z) :- anc(X, Y), edge(_, Y, Z, _).`,
		`safe(X) :- node(X, "a"), not bad(X).` + "\n" + `bad(X) :- prop(X, "k", "v").`,
		`not bad(X) :- node(X, "a").`,
		`win(X) :- move(X, Y), not win(Y).` + "\n" + `move(X, Y) :- edge(_, X, Y, _).`,
		`p(X) :- q(X, X, X).` + "\n" + `q(A) :- node(A, "a").`,
		`pair(X, Y) :- node(X, "a"), node(Y, "b").`,
		`p("\\") :- node(":-", "a,b").`,
		"broken(X :- node(X).",
		"  p(X) :- node(X, \"a\").\v\r\n\tq(X) :-\u00a0node(X, _),\u00a0not p(X).",
		`p(a), q(b) :- r(c) :- node(d, "a").`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	facts := []datalog.Fact{
		{Pred: "node", Args: []string{"n1", "a"}},
		{Pred: "node", Args: []string{"n2", "b"}},
		{Pred: "edge", Args: []string{"e1", "n1", "n2", "x"}},
		{Pred: "prop", Args: []string{"n1", "k", "v"}},
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Bound the program so adversarial inputs cannot blow up the
		// fixpoint inside the fuzz budget; the analyzer itself must
		// survive anything.
		if len(src) > 2048 {
			return
		}
		prog, diags := analyze.Check(src, analyze.Options{})
		checkSpans(t, src, prog)
		if len(prog.Rules) == 0 || len(prog.Rules) > 6 {
			return
		}
		for _, r := range prog.Rules {
			if len(r.Head.Terms) > 3 || len(r.Body) > 4 {
				return
			}
		}
		newDB := func() *datalog.Database {
			db := datalog.NewDatabase()
			for _, fa := range facts {
				db.Assert(fa)
			}
			return db
		}
		base := newDB()
		err := base.Run(prog.Rules)
		diagnosed := false
		for _, d := range diags {
			diagnosed = diagnosed || d.Code == analyze.CodeArityMismatch
		}
		if rejected := err != nil && strings.Contains(err.Error(), "arity mismatch"); diagnosed != rejected {
			t.Fatalf("analyzer arity-mismatch=%v, but Run returned %v\n%s", diagnosed, err, src)
		}
		if analyze.HasErrors(diags) {
			return
		}
		if err != nil {
			t.Fatalf("engine rejected an analysis-clean program: %v\n%s", err, src)
		}
		run := func(rules []datalog.Rule) *datalog.Database {
			db := newDB()
			if err := db.Run(rules); err != nil {
				t.Fatalf("engine rejected an analysis-clean program: %v\n%s", err, src)
			}
			return db
		}
		// Optimize for the first rule's head predicate and compare.
		goal := prog.Rules[0].Head
		goal.Negated = false
		want := datalog.FormatBindings(goal, base.Query(goal))
		optimized, _ := analyze.Optimize(prog.Rules, goal)
		got := datalog.FormatBindings(goal, run(optimized).Query(goal))
		if got != want {
			t.Fatalf("optimized bindings differ for %s\ngot:\n%s\nwant:\n%s\nprogram:\n%s", goal, got, want, src)
		}
		// The goal-pruned program must also yield identical bindings on
		// the interned parallel engine; analysis-clean programs may still
		// use stratified negation of derived predicates, which the naive
		// oracle rejects, so it is left out here.
		db := newDB()
		if err := db.RunParallel(optimized, 3); err != nil {
			t.Fatalf("interned-par rejected an analysis-clean goal-pruned program: %v\n%s", err, src)
		}
		if got := datalog.FormatBindings(goal, db.Query(goal)); got != want {
			t.Fatalf("interned-par bindings differ for %s\ngot:\n%s\nwant:\n%s\nprogram:\n%s", goal, got, want, src)
		}
	})
}

// checkSpans holds every rule's spans to its source line: each span
// slices to text that parses back to the same atom, and on lines whose
// only white space is space, tab or a trailing carriage return the
// spans equal the frozen reference scanner's.
func checkSpans(t *testing.T, src string, prog *analyze.Program) {
	t.Helper()
	lines := strings.Split(src, "\n")
	for i, rs := range prog.Sources {
		line, r := lines[rs.Line-1], prog.Rules[i]
		if len(rs.Body) != len(r.Body) {
			t.Fatalf("line %d: %d body spans for %d body atoms\n%q", rs.Line, len(rs.Body), len(r.Body), line)
		}
		// A head span re-parses as a body-less rule; a body span as the
		// only body atom of a rule (a head may hold top-level commas, a
		// body atom a top-level ":-").
		if got, err := datalog.ParseRule(spanText(t, line, rs.Head)); err != nil || len(got.Body) != 0 || !reflect.DeepEqual(got.Head, r.Head) {
			t.Fatalf("line %d: head span %q parses to %v (%v), want %s", rs.Line, spanText(t, line, rs.Head), got, err, r.Head)
		}
		for j, sp := range rs.Body {
			got, err := datalog.ParseRule("h() :- " + spanText(t, line, sp))
			if err != nil || len(got.Body) != 1 || !reflect.DeepEqual(got.Body[0], r.Body[j]) {
				t.Fatalf("line %d: body span %q parses to %v (%v), want %s", rs.Line, spanText(t, line, sp), got, err, r.Body[j])
			}
		}
		if plain := strings.TrimRight(line, " \t\r"); strings.IndexFunc(plain, func(c rune) bool {
			return unicode.IsSpace(c) && c != ' ' && c != '\t'
		}) >= 0 {
			continue
		}
		head, body := analyze.ReferenceSpans(line, rs.Line, len(r.Body))
		if head != rs.Head || !reflect.DeepEqual(body, rs.Body) {
			t.Fatalf("line %d: spans %v %v, reference scanner %v %v\n%q", rs.Line, rs.Head, rs.Body, head, body, line)
		}
	}
}

// spanText is the text of line a span covers, which must be an atom's
// text alone: no surrounding white space, no terminating dot.
func spanText(t *testing.T, line string, sp analyze.Span) string {
	t.Helper()
	if sp.Col < 1 || sp.EndCol < sp.Col || sp.EndCol-1 > len(line) {
		t.Fatalf("span %v out of range of %q", sp, line)
	}
	text := line[sp.Col-1 : sp.EndCol-1]
	if text != strings.TrimSpace(text) || !strings.HasSuffix(text, ")") {
		t.Fatalf("span %v covers %q, not an atom's text", sp, text)
	}
	return text
}
