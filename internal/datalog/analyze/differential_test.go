package analyze_test

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
)

// Optimization must be invisible in the answers: over every
// checked-in rule file, the optimized program must return
// byte-identical formatted bindings for every derived goal. The
// randomized-corpus differential (TestOptimizeDifferentialCorpus)
// lives beside the engine's own differential in package datalog,
// whose frozen naive oracle it also runs.

// goalFor builds a fresh-variable goal atom for a predicate.
func goalFor(pred string, arity int) datalog.Atom {
	terms := make([]datalog.Term, arity)
	for i := range terms {
		terms[i] = datalog.V(fmt.Sprintf("G%d", i))
	}
	return datalog.Atom{Pred: pred, Terms: terms}
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
