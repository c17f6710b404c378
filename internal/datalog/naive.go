package datalog

// RunNaive evaluates the rules with the original naive fixpoint
// strategy this package shipped with: every iteration re-joins every
// rule against the entire fact set, with no delta relations and no
// indexes, and negation is limited to the semipositive fragment (only
// base or never-derived predicates may be negated).
//
// It is frozen deliberately: the differential tests prove the
// semi-naive engine (Run) derives identical fact sets, and
// BenchmarkDatalogAncestry measures the join-probe gap between the
// two. Do not use it outside tests and benchmarks.
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
					for _, b := range bindings {
						matched := false
						for _, f := range db.stringFacts(atom.Pred) {
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
				facts := db.stringFacts(atom.Pred)
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
