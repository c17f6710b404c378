package asp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteMin enumerates every complete selection (one atom per group) and
// returns the minimum cost among those whose atoms have distinct
// targets and whose implications hold, or -1 when unsatisfiable.
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
			targets := map[int32]bool{}
			for _, a := range selected {
				chosen[a] = true
				cost += int(p.Atom(a).Weight)
				t := p.Atom(a).Target
				if targets[t] {
					return
				}
				targets[t] = true
			}
			for _, a := range selected {
				for _, b := range p.Implied(a) {
					if !chosen[b] {
						return
					}
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
// zeros once the bytes run out: groups of candidates, each mapping onto
// one of a few shared targets or onto a fresh target no other atom has
// (which leaves it unconstrained), and each implying a few atoms of
// earlier groups, so implications can chain.
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
	shared := 1 + next(4)
	fresh := shared
	for g := 0; g < nGroups; g++ {
		gi := p.AddGroup()
		earlier := p.NumAtoms()
		for c, n := 0, 1+next(4); c < n; c++ {
			target := next(shared + 1)
			if target == shared {
				target = fresh
				fresh++
			}
			a := p.AddAtom(gi, target, next(4))
			for i, m := 0, next(3); i < m && earlier > 0; i++ {
				p.AddImplication(a, AtomID(next(earlier)))
			}
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
