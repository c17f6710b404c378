package datalog

// Static checks and stratification shared by every evaluator, plus the
// evaluation counters.
//
//   - Safety. checkRules rejects negated heads, head wildcards, unbound
//     head variables and variables under negation that no preceding
//     positive atom binds, even when no fact would ever reach the rule.
//   - Stratum ordering. Rules are grouped by the stratum of their head
//     predicate (Ullman's algorithm over the predicate dependency
//     graph), so non-recursive predicates finalize once and negation
//     over derived-but-finalized predicates from lower strata is sound.
//     Only recursion *through negation* is rejected.
//
// Run (interned.go) evaluates each stratum semi-naively over interned
// columns; RunNaive (naive.go) is the frozen differential oracle.
//
// Every candidate fact an evaluation examines — an index bucket entry
// or a full-scan element — counts one JoinProbe, which is how the
// asymptotic win over the frozen naive reference is measured.

import (
	"fmt"
	"strconv"
	"strings"
)

// EvalStats counts the work an evaluation performed.
type EvalStats struct {
	// JoinProbes is the number of candidate facts examined while
	// joining body atoms (and checking negations) across Run, RunNaive
	// and Query calls on this database.
	JoinProbes int64
	// Derived is the number of new facts asserted by rule evaluation.
	Derived int64
	// Iterations counts fixpoint rounds across all strata.
	Iterations int64
	// Strata is the number of strata of the last Run program.
	Strata int
}

// Stats returns a snapshot of the database's evaluation counters.
func (db *Database) Stats() EvalStats { return db.stats }

// positionSig renders an index's argument positions as its map key.
func positionSig(positions []int) string {
	parts := make([]string, len(positions))
	for i, p := range positions {
		parts[i] = strconv.Itoa(p)
	}
	return strings.Join(parts, ",")
}

// checkRules statically enforces rule safety, so unsafe rules fail
// loudly even when no facts would reach them at run time:
//
//   - heads carry no wildcards and no negation;
//   - every head variable is bound by a positive body atom;
//   - every variable under negation is bound by a preceding positive
//     body atom (range restriction — negation as failure is only safe
//     on ground atoms).
func checkRules(rules []Rule) error {
	for _, r := range rules {
		if r.Head.Negated {
			return fmt.Errorf("datalog: negated rule head in %s", r)
		}
		bound := map[string]bool{}
		for _, a := range r.Body {
			if a.Negated {
				if err := checkNegBound(a, bound); err != nil {
					return err
				}
				continue
			}
			for _, t := range a.Terms {
				if t.Var != "" {
					bound[t.Var] = true
				}
			}
		}
		for _, t := range r.Head.Terms {
			switch {
			case t.Wild:
				return fmt.Errorf("datalog: wildcard in rule head %s", r.Head)
			case t.Var != "" && !bound[t.Var]:
				return fmt.Errorf("datalog: unbound head variable %s in %s", t.Var, r.Head)
			}
		}
	}
	return nil
}

// checkArities rejects a program that uses a predicate at two
// arities, or at an arity other than that of the predicate's stored
// relation: the columnar store holds exactly one arity per predicate.
func (db *Database) checkArities(rules []Rule) error {
	arity := map[string]int{}
	check := func(a Atom) error {
		want, seen := arity[a.Pred]
		if !seen {
			want = len(a.Terms)
			if rel := db.rels[a.Pred]; rel != nil {
				want = rel.arity
			}
			arity[a.Pred] = want
		}
		if len(a.Terms) != want {
			return fmt.Errorf("datalog: arity mismatch: %s has arity %d, but %s has arity %d", a, len(a.Terms), a.Pred, want)
		}
		return nil
	}
	for _, r := range rules {
		if err := check(r.Head); err != nil {
			return err
		}
		for _, a := range r.Body {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkNegBound rejects negated atoms with variables not bound by a
// preceding positive atom.
func checkNegBound(a Atom, bound map[string]bool) error {
	for _, t := range a.Terms {
		if t.Var != "" && !bound[t.Var] {
			return fmt.Errorf("datalog: unbound variable %s under negation in %s", t.Var, a)
		}
	}
	return nil
}

// stratify assigns every derived predicate a stratum such that a
// positive dependency never decreases the stratum and a negative
// dependency strictly increases it, then groups the rules by their
// head's stratum in ascending order. Programs where no such assignment
// exists (recursion through negation) are rejected.
func stratify(rules []Rule) ([][]Rule, error) {
	derived := map[string]bool{}
	for _, r := range rules {
		derived[r.Head.Pred] = true
	}
	stratum := map[string]int{}
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			h := r.Head.Pred
			for _, a := range r.Body {
				if !derived[a.Pred] {
					continue // base predicates sit below every stratum
				}
				min := stratum[a.Pred]
				if a.Negated {
					min++
				}
				if stratum[h] < min {
					stratum[h] = min
					if stratum[h] > len(derived) {
						return nil, fmt.Errorf("datalog: unstratified negation of derived predicate %s in %s", a.Pred, r)
					}
					changed = true
				}
			}
		}
	}
	maxStratum := 0
	for _, s := range stratum {
		if s > maxStratum {
			maxStratum = s
		}
	}
	out := make([][]Rule, maxStratum+1)
	for _, r := range rules {
		s := stratum[r.Head.Pred]
		out[s] = append(out[s], r)
	}
	// Drop empty strata (possible when stratum numbers are sparse).
	kept := out[:0]
	for _, s := range out {
		if len(s) > 0 {
			kept = append(kept, s)
		}
	}
	return kept, nil
}
