package asp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteMin enumerates every complete selection (one atom per group) and
// returns the minimum cost among those satisfying all at-most-one sets
// (conflicts included) and implications, or -1 when unsatisfiable.
// Exponential — used only on tiny random instances as an oracle for the
// solver.
func bruteMin(p *Problem) int {
	n := p.NumGroups()
	groups := groupLists(p)
	selected := make([]AtomID, n)
	best := -1
	var rec func(g int)
	rec = func(g int) {
		if g == n {
			cost := 0
			chosen := map[AtomID]bool{}
			for _, a := range selected {
				chosen[a] = true
				cost += int(p.Atom(a).Weight)
			}
			for _, set := range p.sets {
				n := 0
				for _, a := range set {
					if chosen[a] {
						n++
					}
				}
				if n > 1 {
					return
				}
			}
			for _, imp := range p.implies {
				if chosen[imp[0]] && !chosen[imp[1]] {
					return
				}
			}
			if best < 0 || cost < best {
				best = cost
			}
			return
		}
		for _, a := range groups[g] {
			selected[g] = a
			rec(g + 1)
		}
	}
	rec(0)
	return best
}

// randomProblem builds a small random instance (see problemFromBytes).
func randomProblem(rng *rand.Rand) *Problem {
	data := make([]byte, 64)
	rng.Read(data)
	return problemFromBytes(data)
}

// problemFromBytes builds a small instance from a byte string, reading
// zeros once the bytes run out: groups of candidates over a few
// targets; injectivity over each shared target given as one
// at-most-one set, as pairwise conflicts, or not at all; a few extra
// at-most-one sets over arbitrary distinct atoms; and a few
// implications between atoms of different groups.
func problemFromBytes(data []byte) *Problem {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0]) % n
		data = data[1:]
		return v
	}
	p := NewProblem()
	nGroups := 1 + next(5)
	nTargets := 2 + next(4)
	byTarget := make([][]AtomID, nTargets)
	var all []AtomID
	for g := 0; g < nGroups; g++ {
		gi := p.AddGroup()
		used := make([]bool, nTargets)
		for c, n := 0, 1+next(nTargets); c < n; c++ {
			y := next(nTargets)
			if used[y] {
				continue
			}
			used[y] = true
			a := p.AddAtom(gi, next(4))
			byTarget[y] = append(byTarget[y], a)
			all = append(all, a)
		}
	}
	for _, atoms := range byTarget {
		switch next(3) {
		case 0:
			p.AddAtMostOne(atoms)
		case 1:
			for i := 0; i < len(atoms); i++ {
				for j := i + 1; j < len(atoms); j++ {
					p.AddConflict(atoms[i], atoms[j])
				}
			}
		}
	}
	for i, n := 0, next(3); i < n; i++ {
		var set []AtomID
		seen := map[AtomID]bool{}
		for k, m := 0, 2+next(3); k < m; k++ {
			if a := all[next(len(all))]; !seen[a] {
				seen[a] = true
				set = append(set, a)
			}
		}
		p.AddAtMostOne(set)
	}
	for i, n := 0, next(4); i < n; i++ {
		a, b := all[next(len(all))], all[next(len(all))]
		if p.Atom(a).Group != p.Atom(b).Group {
			p.AddImplication(a, b)
		}
	}
	return p
}

// TestSolverMatchesBruteForce: on random tiny instances, SolveMin must
// agree with exhaustive enumeration on both satisfiability and optimum.
func TestSolverMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		want := bruteMin(p)
		sol, err := p.SolveMin()
		if want < 0 {
			return err != nil
		}
		if err != nil {
			t.Logf("seed %d: solver unsat but brute force found cost %d", seed, want)
			return false
		}
		if sol.Cost != want {
			t.Logf("seed %d: solver cost %d, brute force %d", seed, sol.Cost, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSolveAgreesWithSolveMinOnSatisfiability: the non-optimizing entry
// point must find a model exactly when one exists.
func TestSolveAgreesWithSolveMinOnSatisfiability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		_, err1 := p.Solve()
		_, err2 := p.SolveMin()
		return (err1 == nil) == (err2 == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
