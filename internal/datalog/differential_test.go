package datalog

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The differential harness: generate randomized rule/fact programs
// inside the fragment both engines speak (semipositive Datalog —
// negation over base predicates only, since the frozen naive reference
// rejects negation of derived predicates), run the semi-naive engine
// and the naive reference on separate databases, and require the
// byte-identical sorted fact transcript from both. Recursion arises
// naturally whenever a derived predicate lands in a rule body.

// diffConfig spans the generator's vocabulary.
var (
	diffConsts   = []string{"a", "b", "c", "d", "e"}
	diffVars     = []string{"X", "Y", "Z", "W"}
	diffBase     = []string{"b0", "b1", "b2"}
	diffBaseAr   = map[string]int{"b0": 1, "b1": 2, "b2": 2}
	diffDerived  = []string{"d0", "d1", "d2", "d3"}
	diffDerive   = map[string]int{"d0": 1, "d1": 1, "d2": 2, "d3": 2}
	diffPrograms = 150
)

// genTerm picks a term: mostly variables from the pool, sometimes a
// constant, occasionally a wildcard.
func genTerm(rng *rand.Rand) Term {
	switch rng.Intn(10) {
	case 0:
		return C(diffConsts[rng.Intn(len(diffConsts))])
	case 1:
		return W()
	default:
		return V(diffVars[rng.Intn(len(diffVars))])
	}
}

// genAtom builds a body atom for the given predicate.
func genAtom(rng *rand.Rand, pred string, arity int) Atom {
	terms := make([]Term, arity)
	for i := range terms {
		terms[i] = genTerm(rng)
	}
	return Atom{Pred: pred, Terms: terms}
}

// genRule builds one safe rule: 1-3 positive body atoms over base and
// derived predicates, an optional negated base atom over already-bound
// variables, and a head whose variables are all bound.
func genRule(rng *rand.Rand) Rule {
	nBody := 1 + rng.Intn(3)
	var body []Atom
	bound := map[string]bool{}
	for i := 0; i < nBody; i++ {
		var pred string
		var arity int
		if rng.Intn(3) == 0 {
			pred = diffDerived[rng.Intn(len(diffDerived))]
			arity = diffDerive[pred]
		} else {
			pred = diffBase[rng.Intn(len(diffBase))]
			arity = diffBaseAr[pred]
		}
		a := genAtom(rng, pred, arity)
		for _, t := range a.Terms {
			if t.Var != "" {
				bound[t.Var] = true
			}
		}
		body = append(body, a)
	}
	// Optional negated base atom, restricted to bound variables,
	// constants and wildcards, appended last so it is range-restricted.
	if len(bound) > 0 && rng.Intn(3) == 0 {
		pred := diffBase[rng.Intn(len(diffBase))]
		terms := make([]Term, diffBaseAr[pred])
		var boundVars []string
		for v := range bound {
			boundVars = append(boundVars, v)
		}
		sort.Strings(boundVars) // map order must not leak into the program
		for i := range terms {
			switch rng.Intn(3) {
			case 0:
				terms[i] = C(diffConsts[rng.Intn(len(diffConsts))])
			case 1:
				terms[i] = W()
			default:
				terms[i] = V(boundVars[rng.Intn(len(boundVars))])
			}
		}
		body = append(body, Atom{Pred: pred, Terms: terms, Negated: true})
	}
	// Head: a derived predicate over bound variables and constants.
	headPred := diffDerived[rng.Intn(len(diffDerived))]
	headTerms := make([]Term, diffDerive[headPred])
	var boundVars []string
	for v := range bound {
		boundVars = append(boundVars, v)
	}
	sort.Strings(boundVars)
	for i := range headTerms {
		if len(boundVars) > 0 && rng.Intn(4) != 0 {
			headTerms[i] = V(boundVars[rng.Intn(len(boundVars))])
		} else {
			headTerms[i] = C(diffConsts[rng.Intn(len(diffConsts))])
		}
	}
	return Rule{Head: Atom{Pred: headPred, Terms: headTerms}, Body: body}
}

// genProgram builds a random program and its base facts.
func genProgram(rng *rand.Rand) ([]Rule, []Fact) {
	nRules := 2 + rng.Intn(5)
	rules := make([]Rule, 0, nRules)
	for i := 0; i < nRules; i++ {
		rules = append(rules, genRule(rng))
	}
	// A few ground fact-rules exercise the empty-body path.
	if rng.Intn(2) == 0 {
		pred := diffDerived[rng.Intn(len(diffDerived))]
		terms := make([]Term, diffDerive[pred])
		for i := range terms {
			terms[i] = C(diffConsts[rng.Intn(len(diffConsts))])
		}
		rules = append(rules, Rule{Head: Atom{Pred: pred, Terms: terms}})
	}
	var facts []Fact
	nFacts := 5 + rng.Intn(15)
	for i := 0; i < nFacts; i++ {
		pred := diffBase[rng.Intn(len(diffBase))]
		args := make([]string, diffBaseAr[pred])
		for j := range args {
			args[j] = diffConsts[rng.Intn(len(diffConsts))]
		}
		facts = append(facts, Fact{Pred: pred, Args: args})
	}
	return rules, facts
}

// TestDifferentialSemiNaiveVsNaive is the acceptance gate of the
// engine rewrites: on the randomized corpus, the full engine lineup —
// interned sequential (Run at width 1), interned parallel
// (RunParallel at width 3) and the frozen naive oracle (RunNaive) —
// must either fail identically or
// derive byte-identical sorted fact sets. The two interned variants
// must additionally agree on every evaluation counter, the exactness
// guarantee of the round-barrier design.
func TestDifferentialSemiNaiveVsNaive(t *testing.T) {
	engines := []struct {
		name string
		eval func(*Database, []Rule) error
	}{
		{"interned-seq", func(db *Database, rules []Rule) error { return db.RunParallel(rules, 1) }},
		{"interned-par", func(db *Database, rules []Rule) error { return db.RunParallel(rules, 3) }},
		{"naive", (*Database).RunNaive},
	}
	rng := rand.New(rand.NewSource(20260728))
	for p := 0; p < diffPrograms; p++ {
		rules, facts := genProgram(rng)
		name := fmt.Sprintf("program-%03d", p)
		dbs := make([]*Database, len(engines))
		errs := make([]error, len(engines))
		for i, eng := range engines {
			dbs[i] = NewDatabase()
			for _, f := range facts {
				dbs[i].Assert(f)
			}
			errs[i] = eng.eval(dbs[i], rules)
		}
		for i := 1; i < len(engines); i++ {
			if (errs[0] == nil) != (errs[i] == nil) {
				t.Fatalf("%s: engines disagree on acceptance: %s=%v %s=%v\nprogram:\n%s",
					name, engines[0].name, errs[0], engines[i].name, errs[i], renderProgram(rules, facts))
			}
		}
		if errs[0] != nil {
			continue
		}
		want := dumpFacts(dbs[0])
		for i := 1; i < len(engines); i++ {
			if got := dumpFacts(dbs[i]); got != want {
				t.Fatalf("%s: fact sets differ\n%s:\n%s\n%s:\n%s\nprogram:\n%s",
					name, engines[0].name, want, engines[i].name, got, renderProgram(rules, facts))
			}
		}
		if seq, par := dbs[0].Stats(), dbs[1].Stats(); seq != par {
			t.Fatalf("%s: interned counters diverge across widths: seq=%+v par=%+v\nprogram:\n%s",
				name, seq, par, renderProgram(rules, facts))
		}
	}
}

// TestArityMismatchRejected: a predicate used at two arities — against
// its stored facts, across rule heads, or under negation — makes Run
// fail with an arity mismatch before any stratum evaluates.
func TestArityMismatchRejected(t *testing.T) {
	programs := []string{
		// Rules use p at arity 1 and 2; p is stored at arity 2.
		"q(X) :- p(X).\nr(X, Y) :- p(X, Y).",
		// Rules themselves derive p at two arities.
		"p(X) :- b(X).\np(X, X) :- b(X).\nq(Y) :- p(Y, Y).",
		// p at the wrong arity under negation.
		"q(X) :- b(X), not p(X).",
	}
	baseFacts := []Fact{
		{Pred: "p", Args: []string{"a", "b"}},
		{Pred: "p", Args: []string{"a"}}, // refused: p is arity 2
		{Pred: "b", Args: []string{"a"}},
		{Pred: "b", Args: []string{"c"}},
	}
	for i, text := range programs {
		rules, err := ParseRules(text)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		db := NewDatabase()
		for _, f := range baseFacts {
			db.Assert(f)
		}
		err = db.Run(rules)
		if err == nil || !strings.Contains(err.Error(), "arity mismatch") {
			t.Errorf("program %d: Run = %v, want an arity mismatch", i, err)
		}
		if got := db.Stats().Derived; got != 0 {
			t.Errorf("program %d: derived %d facts before rejecting", i, got)
		}
	}
}

// TestDifferentialParseRoundTrip re-parses every generated program
// from its rendered text and reruns it, proving the concrete syntax
// can carry everything the generator produces.
func TestDifferentialParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for p := 0; p < 25; p++ {
		rules, facts := genProgram(rng)
		var text string
		for _, r := range rules {
			text += r.String() + "\n"
		}
		reparsed, err := ParseRules(text)
		if err != nil {
			t.Fatalf("reparse:\n%s\n%v", text, err)
		}
		direct, viaText := NewDatabase(), NewDatabase()
		for _, f := range facts {
			direct.Assert(f)
			viaText.Assert(f)
		}
		errA, errB := direct.Run(rules), viaText.Run(reparsed)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("parse round trip changes acceptance: %v vs %v\n%s", errA, errB, text)
		}
		if errA == nil && dumpFacts(direct) != dumpFacts(viaText) {
			t.Fatalf("parse round trip changes derivation:\n%s", text)
		}
	}
}

func renderProgram(rules []Rule, facts []Fact) string {
	var s string
	for _, f := range facts {
		s += f.String() + "\n"
	}
	for _, r := range rules {
		s += r.String() + "\n"
	}
	return s
}
