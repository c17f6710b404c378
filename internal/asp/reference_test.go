package asp

import "sort"

// The frozen reference solver: the search as it stood before the
// incremental bookkeeping and the at-most-one sets. It expands every
// shared target into pairwise conflicts, keeps implications per atom, and rescans all
// atoms in propagate, pickGroup and lowerBound. The differential tests hold the production solver to
// taking exactly its decisions: the same Selected, Cost and model order.

type refState struct {
	p         *Problem
	groups    [][]AtomID // groups[g] = g's atoms
	conflicts [][]AtomID // conflicts[a] = atoms that cannot hold with a
	implies   [][]AtomID // implies[a] = atoms forced when a holds
	alive     []bool     // per atom
	chosen    []AtomID   // per group, -1 if open
	cost      int
	trail     []AtomID // atoms killed, for undo
	trailMark []int
	best      *Solution
	bestCost  int
	optimize  bool
}

func newRefState(p *Problem, optimize bool) *refState {
	s := &refState{
		p:         p,
		groups:    groupLists(p),
		conflicts: make([][]AtomID, len(p.atoms)),
		implies:   make([][]AtomID, len(p.atoms)),
		alive:     make([]bool, len(p.atoms)),
		chosen:    make([]AtomID, p.NumGroups()),
		optimize:  optimize,
		bestCost:  int(^uint(0) >> 1),
	}
	for a, at := range p.atoms {
		for b, bt := range p.atoms {
			if a != b && at.Target == bt.Target {
				s.conflicts[a] = append(s.conflicts[a], AtomID(b))
			}
		}
		s.implies[a] = p.Implied(AtomID(a))
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	for i := range s.chosen {
		s.chosen[i] = -1
	}
	return s
}

// refSolve is the reference Solve (optimize=false) and SolveMin
// (optimize=true).
func refSolve(p *Problem, optimize bool) (*Solution, error) {
	s := newRefState(p, optimize)
	for _, g := range s.groups {
		if len(g) == 0 {
			return nil, ErrUnsat
		}
	}
	s.search()
	if s.best == nil {
		return nil, ErrUnsat
	}
	return s.best, nil
}

// refSolveAll is the reference SolveAll.
func refSolveAll(p *Problem, limit int, fn func(*Solution) bool) int {
	s := newRefState(p, false)
	for _, g := range s.groups {
		if len(g) == 0 {
			return 0
		}
	}
	count := 0
	stopped := false
	var enumerate func()
	enumerate = func() {
		if stopped {
			return
		}
		gi := s.pickGroup()
		if gi < 0 {
			count++
			sol := &Solution{Selected: append([]AtomID(nil), s.chosen...), Cost: s.cost}
			if !fn(sol) || (limit > 0 && count >= limit) {
				stopped = true
			}
			return
		}
		var cands []AtomID
		for _, a := range s.groups[gi] {
			if s.alive[a] {
				cands = append(cands, a)
			}
		}
		for _, a := range cands {
			if stopped {
				return
			}
			if !s.alive[a] {
				continue
			}
			if s.choose(a) {
				enumerate()
			}
			s.undo()
		}
	}
	enumerate()
	return count
}

func (s *refState) lowerBound() int {
	lb := s.cost
	for gi, g := range s.groups {
		if s.chosen[gi] >= 0 {
			continue
		}
		minW := int(^uint(0) >> 1)
		for _, a := range g {
			if s.alive[a] && int(s.p.atoms[a].Weight) < minW {
				minW = int(s.p.atoms[a].Weight)
			}
		}
		lb += minW
	}
	return lb
}

func (s *refState) pickGroup() int {
	best, bestN := -1, int(^uint(0)>>1)
	for gi, g := range s.groups {
		if s.chosen[gi] >= 0 {
			continue
		}
		n := 0
		for _, a := range g {
			if s.alive[a] {
				n++
			}
		}
		if n < bestN {
			best, bestN = gi, n
			if n <= 1 {
				break
			}
		}
	}
	return best
}

func (s *refState) search() {
	if s.optimize && s.best != nil && s.lowerBound() >= s.bestCost {
		return
	}
	gi := s.pickGroup()
	if gi < 0 {
		s.best = &Solution{Selected: append([]AtomID(nil), s.chosen...), Cost: s.cost}
		s.bestCost = s.cost
		return
	}
	var cands []AtomID
	for _, a := range s.groups[gi] {
		if s.alive[a] {
			cands = append(cands, a)
		}
	}
	if s.optimize {
		sort.SliceStable(cands, func(i, j int) bool {
			return s.p.atoms[cands[i]].Weight < s.p.atoms[cands[j]].Weight
		})
	}
	for _, a := range cands {
		if !s.alive[a] {
			continue
		}
		if s.choose(a) {
			s.search()
			if !s.optimize && s.best != nil {
				s.undo()
				return
			}
		}
		s.undo()
	}
}

func (s *refState) choose(a AtomID) bool {
	s.trailMark = append(s.trailMark, len(s.trail))
	return s.propagate(a)
}

func (s *refState) propagate(a AtomID) bool {
	at := s.p.atoms[a]
	if s.chosen[at.Group] == a {
		return true
	}
	if s.chosen[at.Group] >= 0 || !s.alive[a] {
		return false
	}
	s.chosen[at.Group] = a
	s.cost += int(at.Weight)
	s.trail = append(s.trail, -a-1000000)
	for _, other := range s.groups[at.Group] {
		if other != a && s.alive[other] {
			s.kill(other)
		}
	}
	for _, c := range s.conflicts[a] {
		if s.alive[c] {
			if s.chosen[s.p.atoms[c].Group] == c {
				return false
			}
			s.kill(c)
		} else if s.chosen[s.p.atoms[c].Group] == c {
			return false
		}
	}
	for _, imp := range s.implies[a] {
		ia := s.p.atoms[imp]
		if s.chosen[ia.Group] == imp {
			continue
		}
		if !s.alive[imp] || s.chosen[ia.Group] >= 0 {
			return false
		}
		if !s.propagate(imp) {
			return false
		}
	}
	for gi, g := range s.groups {
		if s.chosen[gi] >= 0 {
			continue
		}
		any := false
		for _, x := range g {
			if s.alive[x] {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	return true
}

func (s *refState) kill(a AtomID) {
	s.alive[a] = false
	s.trail = append(s.trail, a)
}

func (s *refState) undo() {
	mark := s.trailMark[len(s.trailMark)-1]
	s.trailMark = s.trailMark[:len(s.trailMark)-1]
	for len(s.trail) > mark {
		x := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		if x <= -1000000 {
			at := s.p.atoms[AtomID(-(x + 1000000))]
			s.chosen[at.Group] = -1
			s.cost -= int(at.Weight)
		} else {
			s.alive[x] = true
		}
	}
}
