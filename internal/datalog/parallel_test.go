package datalog

import (
	"fmt"
	"testing"
)

// hammerProgram is a multi-stratum recursive program exercising every
// parallel-engine surface at once: two mutually recursive closures in
// the bottom stratum (several delta tasks per round), a negation
// stratum above them, and a final stratum recursing over the negated
// result.
const hammerProgram = `
anc(X, Y) :- edge(_, X, Y, _).
anc(X, Z) :- anc(X, Y), edge(_, Y, Z, _).
desc(X, Y) :- edge(_, Y, X, _).
desc(X, Z) :- desc(X, Y), edge(_, Z, Y, _).
linked(X, Y) :- anc(X, Y), desc(Y, X).
root(X) :- node(X, _), not desc(X, X).
isolated(X) :- root(X), not anc(X, X).
spread(X) :- isolated(X).
spread(Y) :- spread(X), anc(X, Y).
`

// TestParallelCountersExact: RunParallel must produce identical fact
// sets AND identical EvalStats counters at every worker width — the
// per-task counter buffers merged at round barriers are exact, not
// approximate. Run under -race in CI, this doubles as the data-race
// hammer for the worker pool.
func TestParallelCountersExact(t *testing.T) {
	rules, err := ParseRules(hammerProgram)
	if err != nil {
		t.Fatal(err)
	}
	chains, length := 30, 6
	if testing.Short() {
		chains = 8
	}
	g := ancestryGraph(t, chains, length)
	var wantFacts string
	var wantStats EvalStats
	for width := 1; width <= 4; width++ {
		db := NewDatabase()
		db.LoadGraph(g)
		if err := db.RunParallel(rules, width); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		facts, stats := dumpFacts(db), db.Stats()
		if width == 1 {
			wantFacts, wantStats = facts, stats
			if stats.Strata < 2 {
				t.Fatalf("hammer program has %d strata, want >= 2", stats.Strata)
			}
			continue
		}
		if facts != wantFacts {
			t.Errorf("width %d: fact set differs from width 1", width)
		}
		if stats != wantStats {
			t.Errorf("width %d: stats = %+v, want %+v (width 1)", width, stats, wantStats)
		}
	}
}

// TestParallelDerivationOrderDeterministic: the columnar fact order —
// not just the sorted fact set — must be identical at every width,
// since deterministic merge order is what makes the parallel engine's
// counters and Facts() output reproducible.
func TestParallelDerivationOrderDeterministic(t *testing.T) {
	rules, err := ParseRules(hammerProgram)
	if err != nil {
		t.Fatal(err)
	}
	g := ancestryGraph(t, 10, 5)
	order := func(width int) string {
		db := NewDatabase()
		db.LoadGraph(g)
		if err := db.RunParallel(rules, width); err != nil {
			t.Fatal(err)
		}
		var s string
		for _, pred := range db.Predicates() {
			for _, f := range db.Facts(pred) {
				s += f.String() + "\n"
			}
		}
		return s
	}
	want := order(1)
	for width := 2; width <= 4; width++ {
		if got := order(width); got != want {
			t.Errorf("width %d: derivation order differs from width 1", width)
		}
	}
}

// TestSetParallelismWidths: Run (the automatic width) and RunParallel
// at explicit widths derive the same facts, and Query after a parallel
// run sees a consistent database.
func TestSetParallelismWidths(t *testing.T) {
	rules, err := ParseRules(hammerProgram)
	if err != nil {
		t.Fatal(err)
	}
	g := ancestryGraph(t, 12, 4)
	var want string
	for _, width := range []int{0, 1, 2, 8} {
		db := NewDatabase()
		db.LoadGraph(g)
		run := db.Run
		if width > 0 {
			run = func(rules []Rule) error { return db.RunParallel(rules, width) }
		}
		if err := run(rules); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		got := dumpFacts(db)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("width %d: fact set differs", width)
		}
		rows := db.Query(Atom{Pred: "spread", Terms: []Term{V("X")}})
		if len(rows) == 0 {
			t.Fatalf("width %d: spread query empty", width)
		}
	}
}

func BenchmarkParallelAncestry(b *testing.B) {
	g := ancestryGraph(b, 400, 5)
	rules, err := ParseRules(ancestryRules)
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := NewDatabase()
				db.LoadGraph(g)
				if err := db.RunParallel(rules, width); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
