package datalog_test

import (
	"fmt"
	"math/rand"
	"testing"

	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
)

// engineLineup is every evaluation strategy the differential compares:
// the interned engine at two widths and the frozen naive oracle. The
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

// TestOptimizeDifferentialCorpus is the optimizer's acceptance gate,
// run over the engine differential's 150-program randomized corpus
// (same generator, same seed): (1) the analyzer accepts exactly what
// the engine accepts, (2) reordering alone leaves the full derived
// fact set byte-identical, and (3) pruning + reordering for each
// derived goal leaves that goal's formatted bindings byte-identical on
// every engine in the lineup.
func TestOptimizeDifferentialCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for p := 0; p < 150; p++ {
		rules, facts := datalog.GenProgram(rng)
		name := fmt.Sprintf("program-%03d", p)
		if diags := analyze.FromRules(rules).Analyze(analyze.Options{Base: datalog.DiffBaseArity}); analyze.HasErrors(diags) {
			t.Fatalf("%s: generator produced an engine-safe program the analyzer rejects: %v", name, diags)
		}
		base := loadFacts(facts)
		if err := base.Run(rules); err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}

		reordered, _ := analyze.ReorderBodies(rules)
		reDB := loadFacts(facts)
		if err := reDB.Run(reordered); err != nil {
			t.Fatalf("%s: Run reordered: %v", name, err)
		}
		if got, want := datalog.DumpFacts(reDB), datalog.DumpFacts(base); got != want {
			t.Fatalf("%s: reordering changed the fact set\ngot:\n%s\nwant:\n%s", name, got, want)
		}

		for _, pred := range datalog.DiffDerived {
			terms := make([]datalog.Term, datalog.DiffDerivedArity[pred])
			for i := range terms {
				terms[i] = datalog.V(fmt.Sprintf("G%d", i))
			}
			goal := datalog.Atom{Pred: pred, Terms: terms}
			want := datalog.FormatBindings(goal, base.Query(goal))
			optimized, _ := analyze.Optimize(rules, goal)
			// The goal-pruned program must produce the same bindings on
			// every engine in the lineup, not just the default one —
			// pruning interacts with stratification and delta seeding, so
			// this is where an interned-engine bug would surface.
			for _, eng := range engineLineup {
				db := loadFacts(facts)
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

func loadFacts(facts []datalog.Fact) *datalog.Database {
	db := datalog.NewDatabase()
	for _, f := range facts {
		db.Assert(f)
	}
	return db
}
