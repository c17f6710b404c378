package datalog

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSplitAtomsEscapedBackslash: a constant ending in an escaped
// backslash ("x\\") used to leave the scanner stuck in-string (it
// looked one byte back instead of consuming the escape), so the body
// failed to split. Both scanners now share one quoted-string lexer.
func TestSplitAtomsEscapedBackslash(t *testing.T) {
	r, err := ParseRule(`h(X) :- p("x\\"), q(X).`)
	if err != nil {
		t.Fatalf("escaped-backslash body failed to parse: %v", err)
	}
	if len(r.Body) != 2 {
		t.Fatalf("body split into %d atoms, want 2: %s", len(r.Body), r)
	}
	if got := r.Body[0].Terms[0].Const; got != `x\` {
		t.Errorf("constant = %q, want %q", got, `x\`)
	}
	// Round trip: the rendered rule re-escapes the backslash.
	r2, err := ParseRule(r.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", r.String(), err)
	}
	if r2.String() != r.String() {
		t.Errorf("unstable: %s vs %s", r, r2)
	}
}

// TestParseRuleQuotedSpecials: ":-" and "." inside quoted constants
// must not confuse the head/body split or the dot strip.
func TestParseRuleQuotedSpecials(t *testing.T) {
	cases := []struct {
		in        string
		wantHead  string
		wantBody  int
		wantConst string
	}{
		{`p(":-").`, "p", 0, ":-"},
		{`p(".").`, "p", 0, "."},
		{`p("a :- b.") :- q(X), r(X).`, "p", 2, "a :- b."},
		{`h(X) :- p(X, ":-").`, "h", 1, ""},
		{`p("").`, "p", 0, ""},
	}
	for _, tc := range cases {
		r, err := ParseRule(tc.in)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", tc.in, err)
			continue
		}
		if r.Head.Pred != tc.wantHead || len(r.Body) != tc.wantBody {
			t.Errorf("ParseRule(%q) = %s (head %q, %d body atoms)", tc.in, r, r.Head.Pred, len(r.Body))
			continue
		}
		if tc.wantConst != "" || tc.in == `p("").` {
			if got := r.Head.Terms[0].Const; got != tc.wantConst {
				t.Errorf("ParseRule(%q) head constant = %q, want %q", tc.in, got, tc.wantConst)
			}
		}
		r2, err := ParseRule(r.String())
		if err != nil {
			t.Errorf("reparse of %q -> %q: %v", tc.in, r.String(), err)
			continue
		}
		if r2.String() != r.String() {
			t.Errorf("unstable render of %q: %q vs %q", tc.in, r.String(), r2.String())
		}
	}
}

// TestFactRuleRendering: a body-less rule renders as "head." and
// round-trips (the old renderer emitted a dangling " :- ").
func TestFactRuleRendering(t *testing.T) {
	r, err := ParseRule(`seed("a").`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != `seed("a").` {
		t.Errorf("fact rule renders as %q", got)
	}
	if _, err := ParseRule(r.String()); err != nil {
		t.Errorf("fact rule does not round-trip: %v", err)
	}
}

// TestStringEscapesInRendering: constants with quotes, backslashes and
// newlines render escaped and survive a parse round trip.
func TestStringEscapesInRendering(t *testing.T) {
	r := Rule{
		Head: Atom{Pred: "p", Terms: []Term{C(`a"b`), C(`c\d`), C("e\nf")}},
		Body: []Atom{{Pred: "q", Terms: []Term{W()}}},
	}
	s := r.String()
	r2, err := ParseRule(s)
	if err != nil {
		t.Fatalf("reparse %q: %v", s, err)
	}
	for i, want := range []string{`a"b`, `c\d`, "e\nf"} {
		if got := r2.Head.Terms[i].Const; got != want {
			t.Errorf("term %d = %q, want %q", i, got, want)
		}
	}
	if r2.String() != s {
		t.Errorf("unstable: %q vs %q", s, r2.String())
	}
}

// TestParseAtomGoal: the exported goal parser accepts positive atoms
// and rejects negation.
func TestParseAtomGoal(t *testing.T) {
	a, err := ParseAtom(` suspicious(P) `)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pred != "suspicious" || len(a.Terms) != 1 || a.Terms[0].Var != "P" {
		t.Errorf("goal = %v", a)
	}
	if _, err := ParseAtom(`not suspicious(P)`); err == nil {
		t.Error("negated goal accepted")
	}
	if _, err := ParseAtom(`garbage`); err == nil {
		t.Error("malformed goal accepted")
	}
}

// TestQueryDedupsWildcardBindings is the regression test for the
// duplicate-rows bug: a goal with wildcard terms used to yield one
// identical binding per matching fact.
func TestQueryDedupsWildcardBindings(t *testing.T) {
	db := NewDatabase()
	db.Assert(Fact{Pred: "q", Args: []string{"a", "b"}})
	db.Assert(Fact{Pred: "q", Args: []string{"a", "c"}})
	db.Assert(Fact{Pred: "q", Args: []string{"d", "e"}})
	res := db.Query(Atom{Pred: "q", Terms: []Term{V("X"), W()}})
	if len(res) != 2 {
		t.Fatalf("bindings = %v, want exactly [{X:a} {X:d}]", res)
	}
	if res[0]["X"] != "a" || res[1]["X"] != "d" {
		t.Errorf("bindings = %v, want sorted [{X:a} {X:d}]", res)
	}
	// Fully-wild goal: one empty binding, however many facts match.
	all := db.Query(Atom{Pred: "q", Terms: []Term{W(), W()}})
	if len(all) != 1 || len(all[0]) != 0 {
		t.Errorf("wildcard-only goal = %v, want one empty binding", all)
	}
}

// TestFormatBindings: the shared query reporter renders
// deterministically.
func TestFormatBindings(t *testing.T) {
	goal, err := ParseAtom("suspicious(P)")
	if err != nil {
		t.Fatal(err)
	}
	out := FormatBindings(goal, []map[string]string{{"P": "n16"}, {"P": "n3"}})
	want := "query suspicious(P): 2 match(es)\n  P=\"n16\"\n  P=\"n3\"\n"
	if out != want {
		t.Errorf("FormatBindings = %q, want %q", out, want)
	}
	if got := FormatBindings(goal, nil); got != "query suspicious(P): no matches\n" {
		t.Errorf("empty FormatBindings = %q", got)
	}
	ground, _ := ParseAtom(`suspicious("n16")`)
	if got := FormatBindings(ground, []map[string]string{{}}); !strings.Contains(got, "1 match(es)") {
		t.Errorf("ground FormatBindings = %q", got)
	}
}

// TestCheckedInRulesParse guards the shipped rule artifacts against
// parser drift: the example Dora rule file and the README's prolog
// block must always parse (and the README block must run within the
// supported fragment).
func TestCheckedInRulesParse(t *testing.T) {
	text, err := os.ReadFile("../../examples/detection/suspicious.dl")
	if err != nil {
		t.Fatal(err)
	}
	rules, err := ParseRules(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("rule file parsed to nothing")
	}
	md, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?s)```prolog\n(.*?)```").FindSubmatch(md)
	if m == nil {
		t.Fatal("README has no ```prolog block")
	}
	readmeRules, err := ParseRules(string(m[1]))
	if err != nil {
		t.Fatalf("README prolog block does not parse: %v", err)
	}
	if err := NewDatabase().Run(readmeRules); err != nil {
		t.Fatalf("README prolog block is outside the supported fragment: %v", err)
	}
}
