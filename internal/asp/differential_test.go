package asp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// groupLists returns each group's atoms as a list, the form the frozen
// oracles iterate.
func groupLists(p *Problem) [][]AtomID {
	groups := make([][]AtomID, p.NumGroups())
	for g := range groups {
		for a, hi := p.span(g); a < hi; a++ {
			groups[g] = append(groups[g], a)
		}
	}
	return groups
}

// render prints p in a clingo-like syntax for failure reports, naming
// atom i as a<i>: one choice rule per group, each pair of atoms sharing
// a target as a conflict, each atom's implications and the weights as
// a #minimize.
func render(p *Problem) string {
	var b strings.Builder
	for g, atoms := range groupLists(p) {
		names := make([]string, len(atoms))
		for i, a := range atoms {
			names[i] = fmt.Sprintf("a%d", a)
		}
		fmt.Fprintf(&b, "{ %s } = 1. %% group %d\n", strings.Join(names, "; "), g)
	}
	for x, xt := range p.atoms {
		for y := x + 1; y < len(p.atoms); y++ {
			if p.atoms[y].Target == xt.Target {
				fmt.Fprintf(&b, ":- a%d, a%d.\n", x, y)
			}
		}
	}
	for a := range p.atoms {
		for _, imp := range p.Implied(AtomID(a)) {
			fmt.Fprintf(&b, ":- a%d, not a%d.\n", a, imp)
		}
	}
	var costs []string
	for a, at := range p.atoms {
		if at.Weight != 0 {
			costs = append(costs, fmt.Sprintf("%d,a%d : a%d", at.Weight, a, a))
		}
	}
	if len(costs) > 0 {
		fmt.Fprintf(&b, "#minimize { %s }.\n", strings.Join(costs, "; "))
	}
	return b.String()
}

// referenceDiff reports the first way the solver's answers on p differ
// from the frozen reference solver's, or "" when they agree: the same
// Selected and Cost from Solve and SolveMin, and the same model
// sequence from SolveAll.
func referenceDiff(p *Problem) string {
	for _, optimize := range []bool{false, true} {
		got, gotErr := p.solve(optimize)
		want, wantErr := refSolve(p, optimize)
		if (gotErr == nil) != (wantErr == nil) {
			return fmt.Sprintf("optimize=%v: err %v, reference err %v", optimize, gotErr, wantErr)
		}
		// The reference does not count search nodes, so Nodes is left
		// out of the comparison.
		if gotErr == nil && fmt.Sprint(got.Selected, got.Cost) != fmt.Sprint(want.Selected, want.Cost) {
			return fmt.Sprintf("optimize=%v: %v, reference %v", optimize, got, want)
		}
	}
	const limit = 500
	var got, want []string
	p.SolveAll(limit, func(s *Solution) bool { got = append(got, fmt.Sprint(s)); return true })
	refSolveAll(p, limit, func(s *Solution) bool { want = append(want, fmt.Sprint(s)); return true })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Sprintf("SolveAll models %v, reference %v", got, want)
	}
	return ""
}

// TestSolverMatchesReference: on random problems mixing shared and
// fresh targets and chains of implications, the solver takes exactly
// the frozen reference solver's decisions.
func TestSolverMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProblem(rand.New(rand.NewSource(seed)))
		if d := referenceDiff(p); d != "" {
			t.Logf("seed %d: %s\n%s", seed, d, render(p))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzSolverMatchesReference runs the same differential on problems
// built from fuzzer-chosen bytes.
func FuzzSolverMatchesReference(f *testing.F) {
	f.Add([]byte{})
	// Three groups over three shared targets, where the cheapest first
	// choice is not optimal.
	f.Add([]byte{2, 2, 2, 0, 0, 0, 1, 3, 0, 2, 3, 0, 2, 0, 0, 0, 1, 3, 0, 2, 3, 0, 2, 0, 3, 0, 1, 0, 0, 2, 3, 0})
	// Fresh targets and the implication chain a6 -> a4 -> a2 -> a0.
	f.Add([]byte{3, 0, 1, 0, 2, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 2, 1, 3, 0, 0, 1, 0, 1, 4})
	// Shared targets and implications that together leave no model.
	f.Add([]byte{3, 1, 1, 0, 1, 0, 1, 2, 1, 0, 2, 0, 1, 2, 1, 2, 0, 2, 1, 1, 0, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := problemFromBytes(data)
		if d := referenceDiff(p); d != "" {
			t.Fatalf("%s\n%s", d, render(p))
		}
	})
}
