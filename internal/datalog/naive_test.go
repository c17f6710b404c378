package datalog

import "fmt"

// RunNaive evaluates the rules with the original naive fixpoint
// strategy this package shipped with: every iteration re-joins every
// rule against the entire fact set, with no delta relations and no
// indexes, and negation is limited to the semipositive fragment (only
// base or never-derived predicates may be negated).
//
// It is frozen deliberately: the differential tests prove the
// semi-naive engine (Run) derives identical fact sets, and
// BenchmarkDatalogAncestry measures the join-probe gap between the
// two. It reads facts through Facts, so it sees only the public view
// of the database; its timings include materializing those copies
// once per body atom per iteration.
//
// It shares Run's static safety check, so an unsafe rule is rejected
// even when no binding ever reaches its head.
func (db *Database) RunNaive(rules []Rule) error {
	if vs := safetyViolations(rules); len(vs) > 0 {
		return vs[0]
	}
	heads := map[string]bool{}
	for _, r := range rules {
		heads[r.Head.Pred] = true
	}
	for ri, r := range rules {
		for ai, a := range r.Body {
			if a.Negated && heads[a.Pred] {
				return &Violation{Kind: UnstratifiedNegation, Rule: ri, Atom: ai, Pred: a.Pred, rule: r}
			}
		}
	}
	for {
		derived := false
		for _, r := range rules {
			bindings := []binding{{}}
			for _, atom := range r.Body {
				var next []binding
				if atom.Negated {
					facts := db.Facts(atom.Pred)
					for _, b := range bindings {
						matched := false
						for _, f := range facts {
							db.stats.JoinProbes++
							if _, ok := unify(Atom{Pred: atom.Pred, Terms: atom.Terms}, f, b); ok {
								matched = true
								break
							}
						}
						if !matched {
							next = append(next, b)
						}
					}
					bindings = next
					if len(bindings) == 0 {
						break
					}
					continue
				}
				facts := db.Facts(atom.Pred)
				db.stats.JoinProbes += int64(len(facts)) * int64(len(bindings))
				for _, b := range bindings {
					for _, f := range facts {
						if nb, ok := unify(atom, f, b); ok {
							next = append(next, nb)
						}
					}
				}
				bindings = next
				if len(bindings) == 0 {
					break
				}
			}
			for _, b := range bindings {
				f, err := substitute(r.Head, b)
				if err != nil {
					return err
				}
				if db.Assert(f) {
					db.stats.Derived++
					derived = true
				}
			}
		}
		db.stats.Iterations++
		if !derived {
			return nil
		}
	}
}

// binding maps variable names to values.
type binding map[string]string

func (b binding) clone() binding {
	out := make(binding, len(b)+1)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// unify extends a binding by matching an atom's terms against a fact.
func unify(a Atom, f Fact, b binding) (binding, bool) {
	if a.Pred != f.Pred || len(a.Terms) != len(f.Args) {
		return nil, false
	}
	out := b
	copied := false
	for i, t := range a.Terms {
		val := f.Args[i]
		switch {
		case t.Wild:
		case t.Var == "":
			if t.Const != val {
				return nil, false
			}
		default:
			if bound, ok := out[t.Var]; ok {
				if bound != val {
					return nil, false
				}
			} else {
				if !copied {
					out = out.clone()
					copied = true
				}
				out[t.Var] = val
			}
		}
	}
	return out, true
}

// substitute instantiates the head atom under a binding.
func substitute(head Atom, b binding) (Fact, error) {
	args := make([]string, len(head.Terms))
	for i, t := range head.Terms {
		switch {
		case t.Wild:
			return Fact{}, fmt.Errorf("datalog: wildcard in rule head %s", head)
		case t.Var != "":
			v, ok := b[t.Var]
			if !ok {
				return Fact{}, fmt.Errorf("datalog: unbound head variable %s in %s", t.Var, head)
			}
			args[i] = v
		default:
			args[i] = t.Const
		}
	}
	return Fact{Pred: head.Pred, Args: args}, nil
}
