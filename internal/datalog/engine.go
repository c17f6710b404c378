package datalog

// Static checks and stratification shared by every evaluator, plus the
// evaluation counters.
//
//   - Safety. safetyViolations finds negated heads, head wildcards,
//     unbound head variables and variables under negation that no
//     preceding positive atom binds, even when no fact would ever reach
//     the rule.
//   - Stratum ordering. Rules are grouped by the stratum of their head
//     predicate (Ullman's algorithm over the predicate dependency
//     graph), so non-recursive predicates finalize once and negation
//     over derived-but-finalized predicates from lower strata is sound.
//     Only recursion *through negation* is rejected.
//
// Both reject with a *Violation naming the rule and atom at fault;
// Violations lists them all for the static analyzer (package analyze).
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

// ViolationKind classifies a static rejection.
type ViolationKind int

const (
	// NegatedHead: the rule head is negated.
	NegatedHead ViolationKind = iota
	// WildcardHead: the rule head contains the _ wildcard.
	WildcardHead
	// UnboundHeadVar: a head variable no positive body atom binds.
	UnboundHeadVar
	// UnboundNegationVar: a variable under negation that no preceding
	// positive body atom binds.
	UnboundNegationVar
	// UnstratifiedNegation: recursion through negation.
	UnstratifiedNegation
)

// Violation is a static rejection of a rule program: an unsafe rule or
// recursion through negation. Run and RunNaive return the first one as
// their error.
type Violation struct {
	Kind ViolationKind
	// Rule indexes the rule slice the program was checked as.
	Rule int
	// Atom indexes the rule's body; -1 addresses the head.
	Atom int
	// Var is the offending variable of the unbound-variable kinds.
	Var string
	// Pred is the negated predicate of UnstratifiedNegation.
	Pred string
	// rule is the offending rule, for Error.
	rule Rule
}

func (v *Violation) Error() string {
	switch v.Kind {
	case NegatedHead:
		return fmt.Sprintf("datalog: negated rule head in %s", v.rule)
	case WildcardHead:
		return fmt.Sprintf("datalog: wildcard in rule head %s", v.rule.Head)
	case UnboundHeadVar:
		return fmt.Sprintf("datalog: unbound head variable %s in %s", v.Var, v.rule.Head)
	case UnboundNegationVar:
		return fmt.Sprintf("datalog: unbound variable %s under negation in %s", v.Var, v.rule.Body[v.Atom])
	default:
		return fmt.Sprintf("datalog: unstratified negation of derived predicate %s in %s", v.Pred, v.rule)
	}
}

// Violations returns every safety violation of the program in
// detection order, followed by its stratification violation, if any.
// The program evaluates (arities aside) exactly when it is empty.
func Violations(rules []Rule) []*Violation {
	out := safetyViolations(rules)
	if v := stratumOf(rules, map[string]int{}); v != nil {
		out = append(out, v)
	}
	return out
}

// safetyViolations statically enforces rule safety, so unsafe rules
// fail loudly even when no facts would reach them at run time:
//
//   - heads carry no wildcards and no negation;
//   - every head variable is bound by a positive body atom;
//   - every variable under negation is bound by a preceding positive
//     body atom (range restriction — negation as failure is only safe
//     on ground atoms).
//
// Each rule reports its negated head first, then its body atoms in
// order, then its head terms; a variable is reported at every
// occurrence.
func safetyViolations(rules []Rule) []*Violation {
	var out []*Violation
	for ri, r := range rules {
		if r.Head.Negated {
			out = append(out, &Violation{Kind: NegatedHead, Rule: ri, Atom: -1, rule: r})
		}
		bound := map[string]bool{}
		for ai, a := range r.Body {
			for _, t := range a.Terms {
				switch {
				case t.Var == "":
				case !a.Negated:
					bound[t.Var] = true
				case !bound[t.Var]:
					out = append(out, &Violation{Kind: UnboundNegationVar, Rule: ri, Atom: ai, Var: t.Var, rule: r})
				}
			}
		}
		for _, t := range r.Head.Terms {
			switch {
			case t.Wild:
				out = append(out, &Violation{Kind: WildcardHead, Rule: ri, Atom: -1, rule: r})
			case t.Var != "" && !bound[t.Var]:
				out = append(out, &Violation{Kind: UnboundHeadVar, Rule: ri, Atom: -1, Var: t.Var, rule: r})
			}
		}
	}
	return out
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

// stratumOf fills stratum with a stratum for every derived predicate
// such that a positive dependency never decreases the stratum and a
// negative dependency strictly increases it. Programs where no such
// assignment exists (recursion through negation) are rejected. The
// caller owns the map so that it need not escape to the heap.
func stratumOf(rules []Rule, stratum map[string]int) *Violation {
	derived := map[string]bool{}
	for _, r := range rules {
		derived[r.Head.Pred] = true
	}
	for changed := true; changed; {
		changed = false
		for ri, r := range rules {
			h := r.Head.Pred
			for ai, a := range r.Body {
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
						return &Violation{Kind: UnstratifiedNegation, Rule: ri, Atom: ai, Pred: a.Pred, rule: r}
					}
					changed = true
				}
			}
		}
	}
	return nil
}

// stratify groups the rules by their head's stratum (stratumOf) in
// ascending order.
func stratify(rules []Rule) ([][]Rule, *Violation) {
	stratum := map[string]int{}
	if v := stratumOf(rules, stratum); v != nil {
		return nil, v
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
