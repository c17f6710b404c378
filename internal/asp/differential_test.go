package asp

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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
// atom i as a<i>: one choice rule per group, each at-most-one set as
// its pairwise conflicts (sorted and deduplicated, since a pair may
// come from several sets), the implications in insertion order and the
// weights as a #minimize.
func render(p *Problem) string {
	var b strings.Builder
	for g, atoms := range groupLists(p) {
		names := make([]string, len(atoms))
		for i, a := range atoms {
			names[i] = fmt.Sprintf("a%d", a)
		}
		fmt.Fprintf(&b, "{ %s } = 1. %% group %d\n", strings.Join(names, "; "), g)
	}
	var pairs [][2]AtomID
	for _, set := range p.sets {
		for i, x := range set {
			for _, y := range set[i+1:] {
				pairs = append(pairs, [2]AtomID{min(x, y), max(x, y)})
			}
		}
	}
	slices.SortFunc(pairs, func(x, y [2]AtomID) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	for _, k := range slices.Compact(pairs) {
		fmt.Fprintf(&b, ":- a%d, a%d.\n", k[0], k[1])
	}
	for _, imp := range p.implies {
		fmt.Fprintf(&b, ":- a%d, not a%d.\n", imp[0], imp[1])
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

// TestSolverMatchesReference: on random problems mixing pairwise
// conflicts and at-most-one sets, the solver takes exactly the frozen
// reference solver's decisions.
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
	f.Add([]byte{4, 3, 3, 1, 0, 2, 1, 3, 2, 0, 1, 2, 0, 0, 1, 2, 2, 1, 0, 3})
	f.Add([]byte{2, 2, 2, 0, 1, 1, 2, 2, 0, 1, 0, 1, 0, 1, 2, 2, 3, 0, 1, 4, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := problemFromBytes(data)
		if d := referenceDiff(p); d != "" {
			t.Fatalf("%s\n%s", d, render(p))
		}
	})
}
