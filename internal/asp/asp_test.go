package asp

import (
	"errors"
	"testing"
)

// buildAssignment makes a problem with two groups x1, x2 and candidates
// y1, y2 (targets 0 and 1) for each.
func buildAssignment(w11, w12, w21, w22 int) (*Problem, [4]AtomID) {
	p := NewProblem()
	g1 := p.AddGroup()
	a11 := p.AddAtom(g1, 0, w11)
	a12 := p.AddAtom(g1, 1, w12)
	g2 := p.AddGroup()
	a21 := p.AddAtom(g2, 0, w21)
	a22 := p.AddAtom(g2, 1, w22)
	return p, [4]AtomID{a11, a12, a21, a22}
}

func TestSolveFindsAModel(t *testing.T) {
	p, atoms := buildAssignment(0, 0, 0, 0)
	target := map[AtomID]string{atoms[0]: "y1", atoms[1]: "y2", atoms[2]: "y1", atoms[3]: "y2"}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	y1 := target[sol.Selected[0]]
	y2 := target[sol.Selected[1]]
	if y1 == y2 {
		t.Errorf("injectivity violated: both groups map to %s", y1)
	}
}

func TestSolveMinPicksCheapestMatching(t *testing.T) {
	// x1->y1 costs 5, x1->y2 costs 0; x2->y1 costs 0, x2->y2 costs 5.
	// The cheap diagonal (x1->y2, x2->y1) has total 0.
	p, atoms := buildAssignment(5, 0, 0, 5)
	sol, err := p.SolveMin()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 {
		t.Errorf("cost = %d, want 0", sol.Cost)
	}
	if sol.Selected[0] != atoms[1] || sol.Selected[1] != atoms[2] {
		t.Errorf("wrong atoms selected: %v", sol.Selected)
	}
}

func TestSolveMinForcedExpensiveChoice(t *testing.T) {
	// Only one matching exists after conflicts; its cost must be
	// reported faithfully.
	p := NewProblem()
	g1 := p.AddGroup()
	a := p.AddAtom(g1, 0, 7)
	sol, err := p.SolveMin()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 7 || sol.Selected[0] != a {
		t.Errorf("sol = %+v", sol)
	}
}

func TestUnsatEmptyGroup(t *testing.T) {
	p := NewProblem()
	p.AddGroup() // no candidates
	if _, err := p.Solve(); !errors.Is(err, ErrUnsat) {
		t.Errorf("want ErrUnsat, got %v", err)
	}
}

func TestUnsatByConflicts(t *testing.T) {
	// Two groups, one shared candidate each: pigeonhole.
	p := NewProblem()
	g1 := p.AddGroup()
	p.AddAtom(g1, 0, 0)
	g2 := p.AddGroup()
	p.AddAtom(g2, 0, 0)
	if _, err := p.Solve(); !errors.Is(err, ErrUnsat) {
		t.Errorf("want ErrUnsat, got %v", err)
	}
}

func TestImplicationsPropagate(t *testing.T) {
	// Selecting e->f forces x->y; x->z conflicts with that.
	p := NewProblem()
	gx := p.AddGroup()
	xy := p.AddAtom(gx, 0, 1)
	xz := p.AddAtom(gx, 1, 0)
	ge := p.AddGroup()
	ef := p.AddAtom(ge, 2, 0)
	p.AddImplication(ef, xy)
	sol, err := p.SolveMin()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Selected[gx] != xy {
		t.Errorf("implication not enforced: got atom %d, want %d (xz=%d)", sol.Selected[gx], xy, xz)
	}
	if sol.Cost != 1 {
		t.Errorf("cost = %d, want 1 (the forced xy)", sol.Cost)
	}
}

func TestChainedImplications(t *testing.T) {
	p := NewProblem()
	// b and c get a second candidate so they are not forced trivially.
	// An atom implies only earlier atoms, so the chain a1 -> b1 -> c1
	// is built from its end.
	gc := p.AddGroup()
	c1 := p.AddAtom(gc, 0, 0)
	p.AddAtom(gc, 1, 0)
	gb := p.AddGroup()
	b1 := p.AddAtom(gb, 2, 0)
	p.AddImplication(b1, c1)
	p.AddAtom(gb, 3, 0)
	ga := p.AddGroup()
	a1 := p.AddAtom(ga, 4, 0)
	p.AddImplication(a1, b1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Selected[ga] == a1 {
		if sol.Selected[gb] != b1 || sol.Selected[gc] != c1 {
			t.Error("implication chain not propagated")
		}
	}
}

func TestConflictWithForcedAtomIsUnsat(t *testing.T) {
	// Group a has one candidate a1; a1 shares its target with the only
	// candidate of group b.
	p := NewProblem()
	ga := p.AddGroup()
	p.AddAtom(ga, 0, 0)
	gb := p.AddGroup()
	p.AddAtom(gb, 0, 0)
	if _, err := p.Solve(); !errors.Is(err, ErrUnsat) {
		t.Errorf("want ErrUnsat, got %v", err)
	}
}

func TestBranchAndBoundOptimality(t *testing.T) {
	// 3x3 assignment with a cost matrix whose greedy row-wise choice is
	// suboptimal; optimum is 1+2+1 = 4 on the anti-diagonal-ish pattern.
	cost := [3][3]int{
		{0, 9, 9}, // x0 wants y0
		{0, 9, 9}, // x1 also wants y0 -> conflict forces rethink
		{9, 0, 9},
	}
	p := NewProblem()
	var atoms [3][3]AtomID
	for i := 0; i < 3; i++ {
		gi := p.AddGroup()
		for j := 0; j < 3; j++ {
			atoms[i][j] = p.AddAtom(gi, j, cost[i][j])
		}
	}
	sol, err := p.SolveMin()
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: one of x0/x1 takes y0 (0), x2 takes y1 (0), the loser of
	// x0/x1 takes y2 (9). Total 9.
	if sol.Cost != 9 {
		t.Errorf("cost = %d, want 9", sol.Cost)
	}
}

func TestSolveAllCountsModels(t *testing.T) {
	// Two groups, two targets, full bipartite with injectivity: exactly
	// the 2 permutation matchings.
	p, _ := buildAssignment(0, 0, 0, 0)
	got := p.SolveAll(0, func(*Solution) bool { return true })
	if got != 2 {
		t.Errorf("models = %d, want 2", got)
	}
	// Limit respected.
	if got := p.SolveAll(1, func(*Solution) bool { return true }); got != 1 {
		t.Errorf("limited models = %d, want 1", got)
	}
	// Callback stop respected.
	calls := 0
	p.SolveAll(0, func(*Solution) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("callback stop: %d calls", calls)
	}
	// Unsatisfiable: zero models.
	q := NewProblem()
	q.AddAtom(q.AddGroup(), 0, 0)
	q.AddAtom(q.AddGroup(), 0, 0)
	if got := q.SolveAll(0, func(*Solution) bool { return true }); got != 0 {
		t.Errorf("unsat models = %d", got)
	}
}

func TestDeterministicSolutions(t *testing.T) {
	p1, _ := buildAssignment(1, 2, 2, 1)
	p2, _ := buildAssignment(1, 2, 2, 1)
	s1, err := p1.SolveMin()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p2.SolveMin()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cost != s2.Cost || s1.Selected[0] != s2.Selected[0] || s1.Selected[1] != s2.Selected[1] {
		t.Error("solver is not deterministic")
	}
}

func TestAddAtomOnlyToNewestGroup(t *testing.T) {
	p := NewProblem()
	g1 := p.AddGroup()
	p.AddAtom(g1, 0, 0)
	p.AddGroup()
	defer func() {
		if recover() == nil {
			t.Error("AddAtom on an older group did not panic")
		}
	}()
	p.AddAtom(g1, 1, 0)
}

func TestAddImplicationOnlyFromNewestAtom(t *testing.T) {
	p := NewProblem()
	g := p.AddGroup()
	a := p.AddAtom(g, 0, 0)
	b := p.AddAtom(p.AddGroup(), 1, 0)
	p.AddImplication(b, a)
	p.AddImplication(b, b)
	if got := p.Implied(b); len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("Implied(b) = %v, want [%d %d]", got, a, b)
	}
	if got := p.Implied(a); len(got) != 0 {
		t.Errorf("Implied(a) = %v, want none", got)
	}
	for _, imp := range [][2]AtomID{{a, b}, {a, a}, {b, b + 1}, {b, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddImplication(%d, %d) did not panic", imp[0], imp[1])
				}
			}()
			p.AddImplication(imp[0], imp[1])
		}()
	}
}
