package analyze_test

import (
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
)

// The optimizer's differential oracle: pruning and reordering must be
// invisible in the answers. Over the randomized corpus (the same
// generator shape and seed as the engine's semi-naive-vs-naive
// harness) and over every checked-in rule file, the optimized program
// must return byte-identical formatted bindings for every derived
// goal, and reordering alone must leave the full fact transcript
// byte-identical.

var (
	diffConsts  = []string{"a", "b", "c", "d", "e"}
	diffVars    = []string{"X", "Y", "Z", "W"}
	diffBase    = []string{"b0", "b1", "b2"}
	diffBaseAr  = map[string]int{"b0": 1, "b1": 2, "b2": 2}
	diffDerived = []string{"d0", "d1", "d2", "d3"}
	diffDerive  = map[string]int{"d0": 1, "d1": 1, "d2": 2, "d3": 2}
)

func genTerm(rng *rand.Rand) datalog.Term {
	switch rng.Intn(10) {
	case 0:
		return datalog.C(diffConsts[rng.Intn(len(diffConsts))])
	case 1:
		return datalog.W()
	default:
		return datalog.V(diffVars[rng.Intn(len(diffVars))])
	}
}

func genAtom(rng *rand.Rand, pred string, arity int) datalog.Atom {
	terms := make([]datalog.Term, arity)
	for i := range terms {
		terms[i] = genTerm(rng)
	}
	return datalog.Atom{Pred: pred, Terms: terms}
}

func genRule(rng *rand.Rand) datalog.Rule {
	nBody := 1 + rng.Intn(3)
	var body []datalog.Atom
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
	if len(bound) > 0 && rng.Intn(3) == 0 {
		pred := diffBase[rng.Intn(len(diffBase))]
		terms := make([]datalog.Term, diffBaseAr[pred])
		var boundVars []string
		for v := range bound {
			boundVars = append(boundVars, v)
		}
		sort.Strings(boundVars)
		for i := range terms {
			switch rng.Intn(3) {
			case 0:
				terms[i] = datalog.C(diffConsts[rng.Intn(len(diffConsts))])
			case 1:
				terms[i] = datalog.W()
			default:
				terms[i] = datalog.V(boundVars[rng.Intn(len(boundVars))])
			}
		}
		body = append(body, datalog.Atom{Pred: pred, Terms: terms, Negated: true})
	}
	headPred := diffDerived[rng.Intn(len(diffDerived))]
	headTerms := make([]datalog.Term, diffDerive[headPred])
	var boundVars []string
	for v := range bound {
		boundVars = append(boundVars, v)
	}
	sort.Strings(boundVars)
	for i := range headTerms {
		if len(boundVars) > 0 && rng.Intn(4) != 0 {
			headTerms[i] = datalog.V(boundVars[rng.Intn(len(boundVars))])
		} else {
			headTerms[i] = datalog.C(diffConsts[rng.Intn(len(diffConsts))])
		}
	}
	return datalog.Rule{Head: datalog.Atom{Pred: headPred, Terms: headTerms}, Body: body}
}

func genProgram(rng *rand.Rand) ([]datalog.Rule, []datalog.Fact) {
	nRules := 2 + rng.Intn(5)
	rules := make([]datalog.Rule, 0, nRules)
	for i := 0; i < nRules; i++ {
		rules = append(rules, genRule(rng))
	}
	if rng.Intn(2) == 0 {
		pred := diffDerived[rng.Intn(len(diffDerived))]
		terms := make([]datalog.Term, diffDerive[pred])
		for i := range terms {
			terms[i] = datalog.C(diffConsts[rng.Intn(len(diffConsts))])
		}
		rules = append(rules, datalog.Rule{Head: datalog.Atom{Pred: pred, Terms: terms}})
	}
	var facts []datalog.Fact
	nFacts := 5 + rng.Intn(15)
	for i := 0; i < nFacts; i++ {
		pred := diffBase[rng.Intn(len(diffBase))]
		args := make([]string, diffBaseAr[pred])
		for j := range args {
			args[j] = diffConsts[rng.Intn(len(diffConsts))]
		}
		facts = append(facts, datalog.Fact{Pred: pred, Args: args})
	}
	return rules, facts
}

// goalFor builds a fresh-variable goal atom for a predicate.
func goalFor(pred string, arity int) datalog.Atom {
	terms := make([]datalog.Term, arity)
	for i := range terms {
		terms[i] = datalog.V(fmt.Sprintf("G%d", i))
	}
	return datalog.Atom{Pred: pred, Terms: terms}
}

// dumpAll renders every predicate's facts sorted — the full-transcript
// equality check for the reorder-only pass.
func dumpAll(db *datalog.Database, preds []string) string {
	var lines []string
	for _, p := range preds {
		for _, f := range db.Facts(p) {
			lines = append(lines, f.String())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func runOn(t *testing.T, facts []datalog.Fact, rules []datalog.Rule) *datalog.Database {
	t.Helper()
	db := datalog.NewDatabase()
	for _, f := range facts {
		db.Assert(f)
	}
	if err := db.Run(rules); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return db
}

// engineLineup is every evaluation strategy the database exposes; the
// corpus negates base predicates only, so even the naive semipositive
// oracle accepts the generated (and goal-pruned) programs.
var engineLineup = []struct {
	name string
	eval func(*datalog.Database, []datalog.Rule) error
}{
	{"interned-seq", func(db *datalog.Database, rs []datalog.Rule) error { return db.RunParallel(rs, 1) }},
	{"interned-par", func(db *datalog.Database, rs []datalog.Rule) error { return db.RunParallel(rs, 3) }},
	{"naive", (*datalog.Database).RunNaive},
}

// TestOptimizeDifferentialCorpus is the optimizer's acceptance gate:
// over the 150-program randomized corpus, (1) the analyzer accepts
// exactly what the engine accepts, (2) reordering alone leaves the
// full derived fact set byte-identical, and (3) pruning + reordering
// for each derived goal leaves that goal's formatted bindings
// byte-identical.
func TestOptimizeDifferentialCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	allPreds := append(append([]string{}, diffBase...), diffDerived...)
	for p := 0; p < 150; p++ {
		rules, facts := genProgram(rng)
		name := fmt.Sprintf("program-%03d", p)
		if diags := analyze.FromRules(rules).Analyze(analyze.Options{Base: diffBaseAr}); analyze.HasErrors(diags) {
			t.Fatalf("%s: generator produced an engine-safe program the analyzer rejects: %v", name, diags)
		}
		base := runOn(t, facts, rules)

		reordered, _ := analyze.ReorderBodies(rules)
		reDB := runOn(t, facts, reordered)
		if got, want := dumpAll(reDB, allPreds), dumpAll(base, allPreds); got != want {
			t.Fatalf("%s: reordering changed the fact set\ngot:\n%s\nwant:\n%s", name, got, want)
		}

		for _, pred := range diffDerived {
			goal := goalFor(pred, diffDerive[pred])
			want := datalog.FormatBindings(goal, base.Query(goal))
			optimized, _ := analyze.Optimize(rules, goal)
			// The goal-pruned program must produce the same bindings on
			// every engine in the lineup, not just the default one —
			// pruning interacts with stratification and delta seeding, so
			// this is where an interned-engine bug would surface.
			for _, eng := range engineLineup {
				db := datalog.NewDatabase()
				for _, f := range facts {
					db.Assert(f)
				}
				if err := eng.eval(db, optimized); err != nil {
					t.Fatalf("%s: %s rejected the goal-pruned program for %s: %v", name, eng.name, goal, err)
				}
				if got := datalog.FormatBindings(goal, db.Query(goal)); got != want {
					t.Fatalf("%s: %s bindings differ for goal %s\ngot:\n%s\nwant:\n%s", name, eng.name, goal, got, want)
				}
			}
		}
	}
}

// provFacts is a synthetic provenance graph in base-fact form: two
// wasInformedBy lineages (one escalated at the root, one not), with
// uid properties that exercise escalation, recursive taint and the
// stratified privilege-drop negation of the checked-in rules.
func provFacts() []datalog.Fact {
	n := func(id, label string) datalog.Fact {
		return datalog.Fact{Pred: "node", Args: []string{id, label}}
	}
	e := func(id, src, tgt, label string) datalog.Fact {
		return datalog.Fact{Pred: "edge", Args: []string{id, src, tgt, label}}
	}
	p := func(elem, key, val string) datalog.Fact {
		return datalog.Fact{Pred: "prop", Args: []string{elem, key, val}}
	}
	return []datalog.Fact{
		n("a1", "activity"), n("a2", "activity"), n("a3", "activity"),
		n("a4", "activity"), n("b1", "activity"), n("b2", "activity"),
		n("f1", "entity"), n("f2", "entity"),
		p("a1", "cf:uid", "0"), p("a2", "cf:uid", "0"),
		p("a3", "cf:uid", "1000"), p("a4", "cf:uid", "1000"),
		p("b1", "cf:uid", "1000"), p("b2", "cf:uid", "1000"),
		e("e1", "a1", "a2", "wasInformedBy"),
		e("e2", "a2", "a3", "wasInformedBy"),
		e("e3", "a3", "a4", "wasInformedBy"),
		e("e4", "b1", "b2", "wasInformedBy"),
		e("e5", "a2", "f1", "used"),
		e("e6", "b2", "f2", "used"),
	}
}

// TestOptimizeCheckedInRuleFiles proves two things about every .dl
// file in the tree (outside the deliberately-dirty analyzer
// fixtures): the file is lint-clean, and optimizing it for each of
// its derived predicates preserves the bindings on a real-shaped
// provenance fact set.
func TestOptimizeCheckedInRuleFiles(t *testing.T) {
	var files []string
	root := filepath.Join("..", "..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".dl") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no checked-in .dl files found")
	}
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		t.Run(rel, func(t *testing.T) {
			prog, diags, err := analyze.CheckFile(path, analyze.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(diags) != 0 {
				t.Fatalf("checked-in rule file is not lint-clean:\n%s", analyze.Render(rel, diags))
			}
			arity := map[string]int{}
			var preds []string
			for _, r := range prog.Rules {
				if _, ok := arity[r.Head.Pred]; !ok {
					arity[r.Head.Pred] = len(r.Head.Terms)
					preds = append(preds, r.Head.Pred)
				}
			}
			facts := provFacts()
			base := runOn(t, facts, prog.Rules)
			nonEmpty := 0
			for _, pred := range preds {
				goal := goalFor(pred, arity[pred])
				rows := base.Query(goal)
				if len(rows) > 0 {
					nonEmpty++
				}
				want := datalog.FormatBindings(goal, rows)
				optimized, _ := analyze.Optimize(prog.Rules, goal)
				got := datalog.FormatBindings(goal, runOn(t, facts, optimized).Query(goal))
				if got != want {
					t.Errorf("goal %s: optimized bindings differ\ngot:\n%s\nwant:\n%s", goal, got, want)
				}
			}
			// The proof is vacuous if the fact set derives nothing.
			if nonEmpty == 0 {
				t.Error("no derived predicate matched the synthetic provenance facts")
			}
		})
	}
}
