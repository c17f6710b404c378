package datalog

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"provmark/internal/graph"
)

// TestStratifiedNegationOverDerived: negating a derived predicate from
// a lower stratum is sound (the stratum finalizes first) and was
// rejected outright by the naive engine — the headline semantic win of
// the stratified rewrite.
func TestStratifiedNegationOverDerived(t *testing.T) {
	db := negSample(t)
	rules, err := ParseRules(`
used(P) :- edge(_, P, _, "Used").
proc(P) :- node(P, "Process").
idle(P) :- proc(P), not used(P).
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RunNaive(rules); err == nil {
		t.Fatal("naive reference unexpectedly accepts negation of a derived predicate")
	}
	db = negSample(t)
	if err := db.Run(rules); err != nil {
		t.Fatal(err)
	}
	res := db.Query(Atom{Pred: "idle", Terms: []Term{V("P")}})
	if len(res) != 1 || res[0]["P"] != "n2" {
		t.Errorf("idle = %v, want [n2]", res)
	}
}

// TestStratumOrdering: a three-stratum chain (base -> derived ->
// negation of derived -> negation of that) evaluates bottom-up.
func TestStratumOrdering(t *testing.T) {
	db := NewDatabase()
	for _, x := range []string{"a", "b", "c"} {
		db.Assert(Fact{Pred: "item", Args: []string{x}})
	}
	db.Assert(Fact{Pred: "flagged", Args: []string{"a"}})
	rules, err := ParseRules(`
bad(X) :- item(X), flagged(X).
good(X) :- item(X), not bad(X).
allgood(X) :- good(X), not bad(X).
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Run(rules); err != nil {
		t.Fatal(err)
	}
	if got := len(db.Facts("good")); got != 2 {
		t.Errorf("good facts = %d, want 2", got)
	}
	if got := len(db.Facts("allgood")); got != 2 {
		t.Errorf("allgood facts = %d, want 2", got)
	}
	if db.Stats().Strata < 2 {
		t.Errorf("strata = %d, want >= 2", db.Stats().Strata)
	}
}

// TestSafetyRejections is the table test over the static safety
// checks: range restriction under negation, unstratified negation, and
// malformed heads. Both engines must reject each program (the naive
// reference may reject a superset, e.g. stratified-but-derived
// negation).
func TestSafetyRejections(t *testing.T) {
	cases := []struct {
		name    string
		program string
		wantErr string
	}{
		{
			name:    "unbound variable under negation",
			program: `bad(X) :- not node(X, "Process").`,
			wantErr: "under negation",
		},
		{
			name: "unbound negation after unrelated atom",
			program: `bad(X) :- node(X, _), not prop(Y, "k", "v").
`,
			wantErr: "under negation",
		},
		{
			name: "negation bound only by later atom",
			program: `bad(X) :- not prop(X, "k", "v"), node(X, _).
`,
			wantErr: "under negation",
		},
		{
			name: "mutual recursion through negation",
			program: `p(X) :- node(X, _), not q(X).
q(X) :- node(X, _), not p(X).
`,
			wantErr: "unstratified",
		},
		{
			name: "self recursion through negation",
			program: `p(X) :- node(X, _), not p(X).
`,
			wantErr: "unstratified",
		},
		{
			name: "recursion through negation via a cycle",
			program: `p(X) :- q(X).
q(X) :- node(X, _), not p(X).
`,
			wantErr: "unstratified",
		},
		{
			name:    "wildcard in head",
			program: `h(_) :- node(X, _).`,
			wantErr: "wildcard in rule head",
		},
		{
			name:    "unbound head variable",
			program: `h(Y) :- node(X, _).`,
			wantErr: "unbound head variable",
		},
		{
			name:    "head variable bound only under negation",
			program: `h(Y) :- node(X, _), not prop(X, Y, _).`,
			wantErr: "under negation",
		},
		{
			name:    "negated head",
			program: `not h(X) :- node(X, _).`,
			wantErr: "negated rule head",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rules, err := ParseRules(tc.program)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			db := negSample(t)
			err = db.Run(rules)
			if err == nil {
				t.Fatalf("Run accepted %q", tc.program)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Run error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestStaticSafetyWithoutFacts: the rewritten engine rejects unsafe
// rules even when no facts would reach them at run time (the naive
// engine only tripped over unbound negation dynamically).
func TestStaticSafetyWithoutFacts(t *testing.T) {
	db := NewDatabase() // empty: the naive engine would accept these
	for _, program := range []string{
		`h(Y) :- b(X).`,
		`h(_) :- b(X).`,
		`bad(X) :- b(X), not c(Y).`,
	} {
		rules, err := ParseRules(program)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Run(rules); err == nil {
			t.Errorf("Run accepted unsafe %q on empty database", program)
		}
	}
}

// ancestryGraph builds `chains` parallel chains of `length` edges each
// — chains*length e-facts in total.
func ancestryGraph(t testing.TB, chains, length int) *graph.Graph {
	g := graph.New()
	for c := 0; c < chains; c++ {
		prev := g.AddNode("N", nil)
		for i := 0; i < length; i++ {
			next := g.AddNode("N", nil)
			if _, err := g.AddEdge(prev, next, "E", nil); err != nil {
				t.Fatal(err)
			}
			prev = next
		}
	}
	return g
}

var ancestryRules = `
anc(X, Y) :- edge(_, X, Y, _).
anc(X, Z) :- anc(X, Y), edge(_, Y, Z, _).
`

// runAncestry loads the graph, runs the transitive-closure program
// under eval, and returns the database.
func runAncestry(t testing.TB, g *graph.Graph, eval func(*Database, []Rule) error) *Database {
	rules, err := ParseRules(ancestryRules)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.LoadGraph(g)
	if err := eval(db, rules); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestAncestryProbeReduction: counter-instrumented proof of the
// asymptotic win. On a 2000-e-fact graph the semi-naive engine must
// issue at least 10x fewer join probes than the frozen naive reference
// while deriving the identical ancestry relation. (The 2000 edges are
// split across parallel chains to keep the naive reference's
// super-quadratic run affordable in a unit test; BenchmarkDatalogAncestry
// measures the same program at deeper recursion.)
func TestAncestryProbeReduction(t *testing.T) {
	chains, length := 400, 5
	if testing.Short() || raceDetector {
		chains = 40
	}
	g := ancestryGraph(t, chains, length)
	semi := runAncestry(t, g, (*Database).Run)
	naive := runAncestry(t, g, (*Database).RunNaive)
	if got, want := dumpFacts(semi), dumpFacts(naive); got != want {
		t.Fatalf("engines disagree on derived facts:\nsemi-naive:\n%s\nnaive:\n%s", got, want)
	}
	sp, np := semi.Stats().JoinProbes, naive.Stats().JoinProbes
	t.Logf("join probes on %d edges: semi-naive=%d naive=%d (%.1fx)", chains*length, sp, np, float64(np)/float64(sp))
	if sp == 0 || np < 10*sp {
		t.Errorf("semi-naive probes = %d, naive probes = %d; want >= 10x reduction", sp, np)
	}
}

// dumpFacts renders every derived and base fact of the database,
// sorted, one per line — the byte-comparable evaluation transcript the
// differential tests diff.
func dumpFacts(db *Database) string {
	var lines []string
	for _, pred := range db.Predicates() {
		for _, f := range db.stringFacts(pred) {
			lines = append(lines, f.String())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestIndexExtension: indexes built before new facts arrive must see
// facts asserted afterwards (they extend lazily on the next probe).
func TestIndexExtension(t *testing.T) {
	db := NewDatabase()
	db.Assert(Fact{Pred: "e", Args: []string{"a", "b"}})
	// Force an index on position 0 via a query with a bound first arg.
	if n := len(db.Query(Atom{Pred: "e", Terms: []Term{C("a"), V("X")}})); n != 1 {
		t.Fatalf("initial probe = %d matches", n)
	}
	db.Assert(Fact{Pred: "e", Args: []string{"a", "c"}})
	if n := len(db.Query(Atom{Pred: "e", Terms: []Term{C("a"), V("X")}})); n != 2 {
		t.Errorf("post-assert probe = %d matches, want 2 (stale index)", n)
	}
}

// TestArityMismatchIndexing: a relation's first fact fixes its arity;
// a fact of another arity is refused without storing anything, and
// goals at the wrong arity match nothing.
func TestArityMismatchIndexing(t *testing.T) {
	db := NewDatabase()
	if !db.Assert(Fact{Pred: "p", Args: []string{"a"}}) {
		t.Fatal("first assert refused")
	}
	syms := len(db.syms)
	if db.Assert(Fact{Pred: "p", Args: []string{"a", "b"}}) {
		t.Error("second-arity assert reported new")
	}
	if n := db.NumFacts("p"); n != 1 {
		t.Errorf("p holds %d facts, want 1", n)
	}
	if len(db.syms) != syms {
		t.Errorf("refused assert interned %d constants", len(db.syms)-syms)
	}
	if res := db.Query(Atom{Pred: "p", Terms: []Term{C("a"), V("X")}}); len(res) != 0 {
		t.Errorf("arity-2 query = %v, want no matches", res)
	}
	if res := db.Query(Atom{Pred: "p", Terms: []Term{V("X")}}); len(res) != 1 || res[0]["X"] != "a" {
		t.Errorf("arity-1 query = %v, want [{X:a}]", res)
	}
}

// TestFactRules: body-less rules assert their ground head once.
func TestFactRules(t *testing.T) {
	db := NewDatabase()
	rules, err := ParseRules(`
seed("a").
seed("b").
copy(X) :- seed(X).
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Run(rules); err != nil {
		t.Fatal(err)
	}
	if got := len(db.Facts("copy")); got != 2 {
		t.Errorf("copy facts = %d, want 2", got)
	}
}

// TestDerivedStatsCount: Stats().Derived counts newly asserted facts.
func TestDerivedStatsCount(t *testing.T) {
	db := NewDatabase()
	db.Assert(Fact{Pred: "b", Args: []string{"x"}})
	rules, err := ParseRules(`d(X) :- b(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Run(rules); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Derived; got != 1 {
		t.Errorf("derived = %d, want 1", got)
	}
}

func ExampleDatabase_Run() {
	db := NewDatabase()
	db.Assert(Fact{Pred: "edge", Args: []string{"e1", "a", "b", "E"}})
	db.Assert(Fact{Pred: "edge", Args: []string{"e2", "b", "c", "E"}})
	rules, _ := ParseRules(`
reach(X, Y) :- edge(_, X, Y, _).
reach(X, Z) :- reach(X, Y), edge(_, Y, Z, _).
`)
	_ = db.Run(rules)
	for _, m := range db.Query(Atom{Pred: "reach", Terms: []Term{C("a"), V("Y")}}) {
		fmt.Println(m["Y"])
	}
	// Output:
	// b
	// c
}
