package datalog

import (
	"reflect"
	"strings"
	"testing"
)

// fuzzBaseFacts ground the fuzzed rules: every predicate the seed
// corpus mentions gets a few facts, so accepted rules actually derive
// something and engine divergence has material to surface in.
var fuzzBaseFacts = []Fact{
	{Pred: "edge", Args: []string{"e1", "n1", "n2", "wasInformedBy"}},
	{Pred: "edge", Args: []string{"e2", "n2", "n3", "used"}},
	{Pred: "edge", Args: []string{"e3", "n3", "n1", "used"}},
	{Pred: "node", Args: []string{"n1", "Process"}},
	{Pred: "node", Args: []string{"n2", "Process"}},
	{Pred: "node", Args: []string{"n3", "Entity"}},
	{Pred: "prop", Args: []string{"n1", "uid", "0"}},
	{Pred: "prop", Args: []string{"n2", "uid", "1000"}},
	{Pred: "q", Args: []string{"n1"}},
	{Pred: "q", Args: []string{"bare"}},
	{Pred: "reach", Args: []string{"n1", "n2"}},
}

// FuzzParseRule fuzzes the rule parser for the canonical-form
// round-trip invariant: any input ParseRule accepts must render
// (String) to a form that re-parses to the identical rendering —
// parse-then-render is a normalization whose fixed point is reached
// after one step; and ParseRuleSpans' spans cover exactly the atoms'
// text. The checked-in corpus under testdata/fuzz seeds
// escapes, negation, wildcards and nested quotes.
func FuzzParseRule(f *testing.F) {
	for _, seed := range []string{
		`suspicious(P) :- prop(P, "uid", "0"), node(P, "Process").`,
		`reach(X, Z) :- reach(X, Y), edge(_, Y, Z, _).`,
		`lonely(X) :- node(X, _), not edge(_, X, _, _).`,
		`h(X) :- p("x\\"), q(X).`,
		`p(":-").`,
		`p("a :- b.") :- q(X).`,
		`p("quote \" inside", "newline\nhere") :- q(_).`,
		`seed("a").`,
		`p(bare, Mixed, "const") :- q(bare).`,
		`escalation(New, Old) :- edge(_, New, Old, "wasInformedBy"), prop(New, "uid", "0").`,
		"\fp(X) :-\u00a0q(X),\vnot r(X).",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		r, err := ParseRule(input)
		if err != nil {
			return // rejected inputs are fine; we only check accepted ones
		}
		// ParseRuleSpans locates each atom at exactly the text it was
		// parsed from.
		_, spans, _ := ParseRuleSpans(input)
		for i, sp := range append([]Span{spans.Head}, spans.Body...) {
			want := r.Head
			if i > 0 {
				want = r.Body[i-1]
			}
			text := input[sp.Start:sp.End]
			if a, err := parseAtom(text); err != nil || text != strings.TrimSpace(text) || !reflect.DeepEqual(a, want) {
				t.Fatalf("span %v of %q covers %q, parsed as %v (%v), want %s", sp, input, text, a, err, want)
			}
		}
		rendered := r.String()
		r2, err := ParseRule(rendered)
		if err != nil {
			t.Fatalf("rendering of accepted input does not re-parse\ninput:    %q\nrendered: %q\nerr: %v", input, rendered, err)
		}
		if again := r2.String(); again != rendered {
			t.Fatalf("rendering is not a fixed point\ninput: %q\nfirst: %q\nsecond: %q", input, rendered, again)
		}
		// Cross-engine invariant: every accepted rule, evaluated over a
		// small fixed fact base, must behave identically on the interned
		// sequential and parallel engines — acceptance, derived fact set
		// and evaluation counters. The naive oracle only speaks the
		// semipositive fragment, so it is compared when it accepts, and
		// it must reject whatever Run rejects except arity mismatches,
		// which only Run checks.
		if len(r.Body) > 6 {
			return // keep cross products over the fact base bounded
		}
		rules := []Rule{r}
		run := func(eval func(*Database, []Rule) error) (*Database, error) {
			db := NewDatabase()
			for _, f := range fuzzBaseFacts {
				db.Assert(f)
			}
			return db, eval(db, rules)
		}
		seqDB, errSeq := run(func(db *Database, rs []Rule) error { return db.RunParallel(rs, 1) })
		parDB, errPar := run(func(db *Database, rs []Rule) error { return db.RunParallel(rs, 3) })
		naiveDB, errNaive := run((*Database).RunNaive)
		if (errSeq == nil) != (errPar == nil) {
			t.Fatalf("engines disagree on acceptance of %q: seq=%v par=%v", rendered, errSeq, errPar)
		}
		if errSeq != nil {
			if errNaive == nil && !strings.Contains(errSeq.Error(), "arity mismatch") {
				t.Fatalf("naive accepts rule the stratified engines reject: %q (stratified err: %v)", rendered, errSeq)
			}
			return
		}
		want := dumpFacts(seqDB)
		if got := dumpFacts(parDB); got != want {
			t.Fatalf("parallel fact set differs for %q\nseq:\n%s\npar:\n%s", rendered, want, got)
		}
		if errNaive == nil {
			if got := dumpFacts(naiveDB); got != want {
				t.Fatalf("naive fact set differs for %q\nseq:\n%s\nnaive:\n%s", rendered, want, got)
			}
		}
		if seq, par := seqDB.Stats(), parDB.Stats(); seq != par {
			t.Fatalf("interned counters diverge across widths for %q: seq=%+v par=%+v", rendered, seq, par)
		}
	})
}
