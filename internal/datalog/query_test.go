package datalog

import (
	"testing"

	"provmark/internal/graph"
)

func loadSample(t *testing.T) *Database {
	t.Helper()
	g := graph.New()
	p := g.AddNode("Process", graph.Properties{"pid": "7", "uid": "1000"})
	f := g.AddNode("Artifact", graph.Properties{"path": "/etc/passwd"})
	q := g.AddNode("Process", graph.Properties{"pid": "8", "uid": "0"})
	if _, err := g.AddEdge(p, f, "Used", graph.Properties{"operation": "open"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(q, p, "WasTriggeredBy", graph.Properties{"operation": "setuid"}); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.LoadGraph(g)
	return db
}

func TestLoadGraphFacts(t *testing.T) {
	db := loadSample(t)
	if got := len(db.Facts("node")); got != 3 {
		t.Errorf("node facts = %d", got)
	}
	if got := len(db.Facts("edge")); got != 2 {
		t.Errorf("edge facts = %d", got)
	}
	// 5 node props plus 2 edge operation props.
	if got := len(db.Facts("prop")); got != 7 {
		t.Errorf("prop facts = %d", got)
	}
}

func TestAssertDeduplicates(t *testing.T) {
	db := NewDatabase()
	f := Fact{Pred: "p", Args: []string{"a", "b"}}
	if !db.Assert(f) {
		t.Error("first assert not new")
	}
	if db.Assert(f) {
		t.Error("duplicate assert reported new")
	}
	if len(db.Facts("p")) != 1 {
		t.Error("duplicate stored")
	}
}

func TestQueryWithConstantsAndVars(t *testing.T) {
	db := loadSample(t)
	// Which processes used /etc/passwd?
	rules, err := ParseRules(`
% accessed(Proc, Path) holds when Proc has a Used edge to a file at Path.
accessed(P, Path) :- edge(_, P, F, "Used"), prop(F, "path", Path).
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Run(rules); err != nil {
		t.Fatal(err)
	}
	res := db.Query(Atom{Pred: "accessed", Terms: []Term{V("P"), C("/etc/passwd")}})
	if len(res) != 1 || res[0]["P"] != "n1" {
		t.Errorf("query result = %v", res)
	}
}

func TestRecursiveReachability(t *testing.T) {
	// Build a chain of Used edges and compute transitive reachability.
	g := graph.New()
	var prev graph.ElemID
	for i := 0; i < 5; i++ {
		id := g.AddNode("N", nil)
		if i > 0 {
			if _, err := g.AddEdge(prev, id, "E", nil); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	db := NewDatabase()
	db.LoadGraph(g)
	rules, err := ParseRules(`
reach(X, Y) :- edge(_, X, Y, _).
reach(X, Z) :- reach(X, Y), edge(_, Y, Z, _).
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Run(rules); err != nil {
		t.Fatal(err)
	}
	// n1 reaches n2..n5: 4 tuples; total pairs = 4+3+2+1 = 10.
	if got := len(db.Facts("reach")); got != 10 {
		t.Errorf("reach facts = %d, want 10", got)
	}
	res := db.Query(Atom{Pred: "reach", Terms: []Term{C("n1"), V("Y")}})
	if len(res) != 4 {
		t.Errorf("n1 reaches %d nodes, want 4", len(res))
	}
}

func TestRuleParsing(t *testing.T) {
	r, err := ParseRule(`suspicious(P) :- prop(P, "uid", "0"), node(P, "Process").`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Head.Pred != "suspicious" || len(r.Body) != 2 {
		t.Fatalf("rule = %s", r)
	}
	if r.Body[0].Terms[1].Const != "uid" {
		t.Errorf("quoted constant parsed as %v", r.Body[0].Terms[1])
	}
	if r.Body[0].Terms[0].Var != "P" {
		t.Errorf("variable parsed as %v", r.Body[0].Terms[0])
	}
	// Round trip through String.
	r2, err := ParseRule(r.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", r.String(), err)
	}
	if r2.String() != r.String() {
		t.Errorf("rule not stable: %s vs %s", r, r2)
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, bad := range []string{
		`head :- body(X).`,        // malformed head
		`h(X) :- b(X`,             // unbalanced
		`h(X) :- b("unterminated`, // bad string
		`h(_) :- b(X).`,           // wildcard in head (caught at run)
	} {
		r, err := ParseRule(bad)
		if err == nil {
			// The wildcard-in-head case parses; it must fail at Run.
			db := NewDatabase()
			db.Assert(Fact{Pred: "b", Args: []string{"x"}})
			if err := db.Run([]Rule{r}); err == nil {
				t.Errorf("accepted %q", bad)
			}
		}
	}
}

func TestUnboundHeadVariableFails(t *testing.T) {
	db := NewDatabase()
	db.Assert(Fact{Pred: "b", Args: []string{"x"}})
	r, err := ParseRule(`h(Y) :- b(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Run([]Rule{r}); err == nil {
		t.Error("unbound head variable accepted")
	}
}

func TestFactsAreCopied(t *testing.T) {
	db := NewDatabase()
	db.Assert(Fact{Pred: "p", Args: []string{"a", "b"}})
	db.Assert(Fact{Pred: "p", Args: []string{"c", "d"}})
	facts := db.Facts("p")
	facts[0].Pred = "mutated"
	facts[0].Args[0] = "x"
	facts[0].Args = append(facts[0].Args, "grown")
	if got := db.Facts("p"); got[0].Pred != "p" || got[0].Args[0] != "a" || got[1].Args[0] != "c" {
		t.Errorf("Facts exposed internal storage: %v", got)
	}
	if facts[1].Args[0] != "c" {
		t.Errorf("appending to one fact's Args clobbered the next: %v", facts[1])
	}
	// The naive oracle reads the same storage; it must not see the edit.
	rules, err := ParseRules(`q(X) :- p(X, _).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RunNaive(rules); err != nil {
		t.Fatal(err)
	}
	for _, f := range db.Facts("q") {
		if f.Args[0] == "x" {
			t.Errorf("RunNaive saw a mutated fact: %v", db.Facts("q"))
		}
	}
}

// TestQueryGoals covers the goal shapes Query handles itself: repeated
// variables, constants no fact mentions, and wildcard dedup.
func TestQueryGoals(t *testing.T) {
	db := NewDatabase()
	for _, args := range [][]string{{"a", "a"}, {"a", "b"}, {"b", "b"}, {"c", "a"}} {
		db.Assert(Fact{Pred: "p", Args: args})
	}
	for _, tc := range []struct {
		goal Atom
		want string
	}{
		{Atom{Pred: "p", Terms: []Term{V("X"), V("X")}}, "X=a;|X=b;|"},
		{Atom{Pred: "p", Terms: []Term{C("a"), V("Y")}}, "Y=a;|Y=b;|"},
		{Atom{Pred: "p", Terms: []Term{V("X"), W()}}, "X=a;|X=b;|X=c;|"},
		{Atom{Pred: "p", Terms: []Term{W(), C("a")}}, "|"},
		{Atom{Pred: "p", Terms: []Term{V("X"), C("nowhere")}}, ""},
		{Atom{Pred: "p", Terms: []Term{V("X")}}, ""},
		{Atom{Pred: "absent", Terms: []Term{V("X")}}, ""},
	} {
		var got string
		for _, m := range db.Query(tc.goal) {
			got += bindingKey(m) + "|"
		}
		if got != tc.want {
			t.Errorf("Query(%s) = %q, want %q", tc.goal, got, tc.want)
		}
	}
	if _, interned := db.symID["nowhere"]; interned {
		t.Error("Query interned a goal constant")
	}
}

// TestQueryJoinProbes pins Query's probe counts: a goal with constants
// counts its index bucket, a goal without counts every row, a constant
// no fact mentions counts nothing.
func TestQueryJoinProbes(t *testing.T) {
	db := runAncestry(t, ancestryGraph(t, 3, 4), (*Database).Run)
	for _, tc := range []struct {
		goal         Atom
		rows, probes int
	}{
		{Atom{Pred: "anc", Terms: []Term{V("X"), V("Y")}}, 30, 30},
		{Atom{Pred: "anc", Terms: []Term{V("X"), V("X")}}, 0, 30},
		{Atom{Pred: "anc", Terms: []Term{C("n1"), V("Y")}}, 4, 4},
		{Atom{Pred: "anc", Terms: []Term{V("X"), C("n5")}}, 4, 4},
		{Atom{Pred: "edge", Terms: []Term{W(), V("S"), V("T"), C("E")}}, 12, 12},
		{Atom{Pred: "anc", Terms: []Term{C("nowhere"), V("Y")}}, 0, 0},
	} {
		before := db.Stats().JoinProbes
		rows := len(db.Query(tc.goal))
		if probes := int(db.Stats().JoinProbes - before); rows != tc.rows || probes != tc.probes {
			t.Errorf("Query(%s): %d rows, %d probes; want %d rows, %d probes", tc.goal, rows, probes, tc.rows, tc.probes)
		}
	}
}

// TestQueryAfterRunSeesNewRows: an index a Query built must extend to
// rows a later Run derives.
func TestQueryAfterRunSeesNewRows(t *testing.T) {
	db := NewDatabase()
	db.Assert(Fact{Pred: "b", Args: []string{"a", "b"}})
	rules, err := ParseRules(`d(X, Y) :- b(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	goal := Atom{Pred: "d", Terms: []Term{C("a"), V("Y")}}
	if err := db.Run(rules); err != nil {
		t.Fatal(err)
	}
	if n := len(db.Query(goal)); n != 1 {
		t.Fatalf("first query = %d matches, want 1", n)
	}
	db.Assert(Fact{Pred: "b", Args: []string{"a", "c"}})
	if err := db.Run(rules); err != nil {
		t.Fatal(err)
	}
	if res := db.Query(goal); len(res) != 2 || res[1]["Y"] != "c" {
		t.Errorf("query after re-run = %v, want [{Y:b} {Y:c}]", res)
	}
}

// TestDetectPrivilegeEscalationPattern is the Dora use case in
// miniature: a rule matching a credential-change edge whose new process
// state has uid 0.
func TestDetectPrivilegeEscalationPattern(t *testing.T) {
	db := loadSample(t)
	rules, err := ParseRules(`
escalation(New, Old) :- edge(_, New, Old, "WasTriggeredBy"), prop(New, "uid", "0").
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Run(rules); err != nil {
		t.Fatal(err)
	}
	res := db.Query(Atom{Pred: "escalation", Terms: []Term{V("N"), V("O")}})
	if len(res) != 1 || res[0]["N"] != "n3" {
		t.Errorf("escalation match = %v", res)
	}
}
