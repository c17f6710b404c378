// Package asp implements the answer-set-programming fragment ProvMark
// needs to solve its two graph-matching listings (Listing 3, graph
// similarity; Listing 4, approximate subgraph isomorphism with a
// #minimize objective). The paper uses the clingo solver; this package
// is a self-contained replacement covering the same program class:
//
//   - cardinality-1 choice rules  {h(X,Y) : ...} = 1 :- item(X)
//     become selection groups: exactly one atom per group is true;
//   - the injectivity rules :- X<>Y, h(X,Z), h(Y,Z) become at-most-one
//     sets, one per target element Z (AddConflict is the two-atom case);
//   - constraints of the form :- h(E1,E2), not h(X,Y) (edge endpoint
//     preservation) become implications h(E1,E2) -> h(X,Y);
//   - #minimize { PC,X,K : cost(X,K,PC) } becomes per-atom integer
//     weights whose selected sum is minimized.
//
// Label-preservation constraints are handled at grounding time: atoms
// whose labels disagree are simply never generated, exactly as a
// grounder would delete rules with unsatisfiable bodies.
//
// The solver is a depth-first search with unit propagation and
// branch-and-bound pruning on the weight objective. It branches on the
// open group with the fewest alive candidates (the lowest index on
// ties) and, under SolveMin, tries them cheapest first. Selecting an
// atom kills the other candidates of its group and the other members of
// its at-most-one sets, then selects the atoms it implies, recursively;
// the selection fails when it contradicts an earlier one or leaves some
// group without a candidate. Every kill and selection goes on a trail
// that backtracking unwinds. The search keeps each group's count of
// alive candidates, the number of groups left with none, and under
// SolveMin each open group's cheapest alive candidate, updating them as
// atoms die and revive; so picking a group, detecting a wiped-out group
// and computing the bound never rescan the atoms. The search is
// deterministic: given the same problem it makes the same choices in
// the same order.
package asp

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// AtomID indexes an atom within a Problem.
type AtomID int

// Atom is one ground instance h(X, Y) of the matching relation, carrying
// an optional weight contributed to the objective when selected.
type Atom struct {
	X, Y   string // element of G1, element of G2 (for rendering)
	Group  int    // selection group this atom belongs to
	Weight int    // objective contribution when selected
}

// Problem is a ground matching program.
type Problem struct {
	atoms     []Atom
	groups    [][]AtomID  // exactly one atom per group must hold
	sets      [][]AtomID  // at most one atom per set may hold
	implies   [][2]AtomID // {a, b}: selecting a forces selecting b
	groupName []string
}

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{}
}

// AddGroup creates a selection group (one X that must be matched) and
// returns its index. name is used only for rendering.
func (p *Problem) AddGroup(name string) int {
	p.groups = append(p.groups, nil)
	p.groupName = append(p.groupName, name)
	return len(p.groups) - 1
}

// AddAtom adds a candidate atom to a group and returns its id.
func (p *Problem) AddAtom(group int, x, y string, weight int) AtomID {
	id := AtomID(len(p.atoms))
	p.atoms = append(p.atoms, Atom{X: x, Y: y, Group: group, Weight: weight})
	p.groups[group] = append(p.groups[group], id)
	return id
}

// AddAtMostOne forbids any two of the given distinct atoms from holding
// together: the injectivity rules :- X<>Y, h(X,Z), h(Y,Z) ground to one
// such set per target element Z. The problem keeps the slice, so the
// caller must not modify it afterwards.
func (p *Problem) AddAtMostOne(atoms []AtomID) {
	if len(atoms) > 1 {
		p.sets = append(p.sets, atoms)
	}
}

// AddConflict forbids a and b from holding together.
func (p *Problem) AddConflict(a, b AtomID) {
	p.AddAtMostOne([]AtomID{a, b})
}

// AddImplication records that selecting a forces selecting b.
func (p *Problem) AddImplication(a, b AtomID) {
	p.implies = append(p.implies, [2]AtomID{a, b})
}

// Atom returns the atom with the given id.
func (p *Problem) Atom(id AtomID) Atom { return p.atoms[id] }

// NumAtoms reports how many ground atoms the problem has.
func (p *Problem) NumAtoms() int { return len(p.atoms) }

// NumGroups reports how many selection groups the problem has.
func (p *Problem) NumGroups() int { return len(p.groups) }

// ErrUnsat is returned when no model exists.
var ErrUnsat = errors.New("asp: unsatisfiable")

// solveInvocations counts Solve/SolveMin searches process-wide; see
// SolveInvocations.
var solveInvocations atomic.Uint64

// SolveInvocations reports the process-wide number of Solve/SolveMin
// searches started since process start. Benchmarks and instrumented
// tests diff this counter to measure how many solver calls a
// classification strategy avoids.
func SolveInvocations() uint64 { return solveInvocations.Load() }

// Solution maps each group index to the selected atom.
type Solution struct {
	Selected []AtomID // indexed by group
	Cost     int
}

// Solve finds any model (ignoring weights). It is equivalent to
// SolveMin with an immediate-accept bound, but skips bound bookkeeping.
func (p *Problem) Solve() (*Solution, error) {
	return p.solve(false)
}

// SolveMin finds a model of minimum total weight.
func (p *Problem) SolveMin() (*Solution, error) {
	return p.solve(true)
}

// SolveAll enumerates models, invoking fn for each (with weights
// reported but not optimized). Enumeration stops when fn returns false
// or after limit models (limit <= 0 means unbounded). It returns the
// number of models visited.
func (p *Problem) SolveAll(limit int, fn func(*Solution) bool) int {
	if p.emptyGroup() >= 0 {
		return 0
	}
	s := p.newState(false)
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
		cands := s.pushCandidates(gi)
		defer s.popCandidates(cands)
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

// state carries the mutable search data. Every atom removal and
// selection is trailed for backtracking, and the per-group counts
// derived from them are updated as atoms die and revive, so no search
// step rescans the atoms.
type state struct {
	p       *Problem
	sets    byAtom   // at-most-one sets containing each atom
	implies byAtom   // atoms each atom's selection forces
	alive   []bool   // per atom
	chosen  []AtomID // per group, -1 if open
	nAlive  []int    // per group: alive candidates
	empty   int      // groups with no alive candidate
	cost    int
	trail   []AtomID // killed atoms, and ^a for each selection of a
	// Under SolveMin only: byWeight[g] lists g's atoms stably sorted by
	// weight. While g is open, byWeight[g][head[g]] is its first alive
	// atom there, whose weight is g's least alive weight. headTrail
	// holds the heads it replaced, for undo.
	byWeight  [][]AtomID
	head      []int
	headTrail []headUndo
	marks     []mark
	stack     []AtomID // candidate lists of the open search levels
	best      *Solution
	bestCost  int
	optimize  bool
}

type headUndo struct{ group, head int }

// mark records the trail lengths at a choice point.
type mark struct{ trail, headTrail int }

// byAtom lists values per atom, in insertion order: atom a's values are
// vals[start[a]:start[a+1]].
type byAtom struct {
	start []int32
	vals  []int32
}

// indexByAtom builds a byAtom over n atoms from the pairs each emits;
// each is called twice and must emit the same pairs both times.
func indexByAtom(n int, each func(emit func(a AtomID, v int32))) byAtom {
	x := byAtom{start: make([]int32, n+1)}
	each(func(a AtomID, _ int32) { x.start[a+1]++ })
	for a := 0; a < n; a++ {
		x.start[a+1] += x.start[a]
	}
	x.vals = make([]int32, x.start[n])
	next := append([]int32(nil), x.start[:n]...)
	each(func(a AtomID, v int32) {
		x.vals[next[a]] = v
		next[a]++
	})
	return x
}

func (x byAtom) of(a AtomID) []int32 { return x.vals[x.start[a]:x.start[a+1]] }

// emptyGroup returns the first group with no candidates, or -1.
func (p *Problem) emptyGroup() int {
	for gi, g := range p.groups {
		if len(g) == 0 {
			return gi
		}
	}
	return -1
}

// newState builds the search state with every atom alive.
func (p *Problem) newState(optimize bool) *state {
	s := &state{
		p:        p,
		alive:    make([]bool, len(p.atoms)),
		chosen:   make([]AtomID, len(p.groups)),
		nAlive:   make([]int, len(p.groups)),
		optimize: optimize,
		bestCost: int(^uint(0) >> 1),
	}
	s.sets = indexByAtom(len(p.atoms), func(emit func(AtomID, int32)) {
		for si, set := range p.sets {
			for _, a := range set {
				emit(a, int32(si))
			}
		}
	})
	s.implies = indexByAtom(len(p.atoms), func(emit func(AtomID, int32)) {
		for _, imp := range p.implies {
			emit(imp[0], int32(imp[1]))
		}
	})
	for i := range s.alive {
		s.alive[i] = true
	}
	for gi, g := range p.groups {
		s.chosen[gi] = -1
		s.nAlive[gi] = len(g)
	}
	if optimize {
		s.byWeight = make([][]AtomID, len(p.groups))
		s.head = make([]int, len(p.groups))
		flat := make([]AtomID, 0, len(p.atoms))
		for gi, g := range p.groups {
			start := len(flat)
			flat = append(flat, g...)
			s.byWeight[gi] = flat[start:]
			slices.SortStableFunc(s.byWeight[gi], func(a, b AtomID) int {
				return cmp.Compare(p.atoms[a].Weight, p.atoms[b].Weight)
			})
		}
	}
	return s
}

func (p *Problem) solve(optimize bool) (*Solution, error) {
	solveInvocations.Add(1)
	if gi := p.emptyGroup(); gi >= 0 {
		return nil, fmt.Errorf("%w: group %s has no candidates", ErrUnsat, p.groupName[gi])
	}
	s := p.newState(optimize)
	s.search()
	if s.best == nil {
		return nil, ErrUnsat
	}
	return s.best, nil
}

// lowerBound sums, over open groups, the minimum weight among alive
// candidates. This is an admissible bound for branch-and-bound.
func (s *state) lowerBound() int {
	lb := s.cost
	for gi, c := range s.chosen {
		if c < 0 {
			lb += s.p.atoms[s.byWeight[gi][s.head[gi]]].Weight
		}
	}
	return lb
}

// pickGroup returns the open group with the fewest alive candidates
// (minimum remaining values, lowest index on ties), or -1 if all
// groups are decided.
func (s *state) pickGroup() int {
	best, bestN := -1, int(^uint(0)>>1)
	for gi, c := range s.chosen {
		if c >= 0 {
			continue
		}
		if n := s.nAlive[gi]; n < bestN {
			best, bestN = gi, n
			if n <= 1 {
				break
			}
		}
	}
	return best
}

// pushCandidates copies group gi's alive atoms onto the candidate stack
// and returns them: in construction order, or under SolveMin stably
// sorted by weight. The copy is needed because selections mutate alive
// while the caller iterates; the caller pops it with popCandidates.
func (s *state) pushCandidates(gi int) []AtomID {
	base := len(s.stack)
	order := s.p.groups[gi]
	if s.optimize {
		order = s.byWeight[gi][s.head[gi]:]
	}
	for _, a := range order {
		if s.alive[a] {
			s.stack = append(s.stack, a)
		}
	}
	return s.stack[base:]
}

func (s *state) popCandidates(cands []AtomID) {
	s.stack = s.stack[:len(s.stack)-len(cands)]
}

func (s *state) search() {
	if s.optimize && s.best != nil && s.lowerBound() >= s.bestCost {
		return
	}
	gi := s.pickGroup()
	if gi < 0 {
		sol := &Solution{Selected: append([]AtomID(nil), s.chosen...), Cost: s.cost}
		s.best = sol
		s.bestCost = s.cost
		return
	}
	cands := s.pushCandidates(gi)
	defer s.popCandidates(cands)
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

// choose selects atom a and propagates: kill the group's other
// candidates, kill every atom sharing an at-most-one set with a, and
// force implications (recursively). It returns false if propagation
// wipes out some group or contradicts an earlier choice; the caller
// must still undo.
func (s *state) choose(a AtomID) bool {
	s.marks = append(s.marks, mark{len(s.trail), len(s.headTrail)})
	return s.propagate(a)
}

func (s *state) propagate(a AtomID) bool {
	at := s.p.atoms[a]
	if s.chosen[at.Group] == a {
		return true // already selected via an earlier implication
	}
	if s.chosen[at.Group] >= 0 || !s.alive[a] {
		return false
	}
	s.chosen[at.Group] = a
	s.cost += at.Weight
	s.trail = append(s.trail, ^a)
	for _, other := range s.p.groups[at.Group] {
		if other != a && s.alive[other] {
			s.kill(other)
		}
	}
	for _, si := range s.sets.of(a) {
		for _, b := range s.p.sets[si] {
			if b == a {
				continue
			}
			if s.chosen[s.p.atoms[b].Group] == b {
				return false // at most one of the set may hold
			}
			if s.alive[b] {
				s.kill(b)
			}
		}
	}
	for _, v := range s.implies.of(a) {
		imp := AtomID(v)
		ig := s.p.atoms[imp].Group
		if s.chosen[ig] == imp {
			continue
		}
		if !s.alive[imp] || s.chosen[ig] >= 0 {
			return false
		}
		if !s.propagate(imp) {
			return false
		}
	}
	// Fail fast if any open group lost all candidates. A chosen group
	// keeps its selected atom alive, so every empty group is open.
	return s.empty == 0
}

func (s *state) kill(a AtomID) {
	s.alive[a] = false
	s.trail = append(s.trail, a)
	g := s.p.atoms[a].Group
	s.nAlive[g]--
	if s.nAlive[g] == 0 {
		s.empty++
		return
	}
	// Under SolveMin, move an open group's head past the atom, which
	// carried the group's least alive weight.
	if s.optimize && s.chosen[g] < 0 && s.byWeight[g][s.head[g]] == a {
		s.headTrail = append(s.headTrail, headUndo{g, s.head[g]})
		h := s.head[g] + 1
		for !s.alive[s.byWeight[g][h]] {
			h++
		}
		s.head[g] = h
	}
}

func (s *state) undo() {
	m := s.marks[len(s.marks)-1]
	s.marks = s.marks[:len(s.marks)-1]
	for len(s.trail) > m.trail {
		x := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		if x < 0 {
			at := s.p.atoms[^x]
			s.chosen[at.Group] = -1
			s.cost -= at.Weight
			continue
		}
		s.alive[x] = true
		g := s.p.atoms[x].Group
		if s.nAlive[g] == 0 {
			s.empty--
		}
		s.nAlive[g]++
	}
	for len(s.headTrail) > m.headTrail {
		u := s.headTrail[len(s.headTrail)-1]
		s.headTrail = s.headTrail[:len(s.headTrail)-1]
		s.head[u.group] = u.head
	}
}

// Render prints the ground program in a clingo-like concrete syntax,
// useful for debugging and for comparing against the paper's listings.
func (p *Problem) Render() string {
	var b strings.Builder
	for gi, g := range p.groups {
		names := make([]string, 0, len(g))
		for _, a := range g {
			names = append(names, fmt.Sprintf("h(%s,%s)", p.atoms[a].X, p.atoms[a].Y))
		}
		fmt.Fprintf(&b, "{ %s } = 1. %% group %s\n", strings.Join(names, "; "), p.groupName[gi])
	}
	var pairs [][2]AtomID
	for _, set := range p.sets {
		for i, x := range set {
			for _, y := range set[i+1:] {
				pairs = append(pairs, [2]AtomID{min(x, y), max(x, y)})
			}
		}
	}
	// Sorted and deduplicated: a pair may come from several sets.
	slices.SortFunc(pairs, func(x, y [2]AtomID) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	for _, k := range slices.Compact(pairs) {
		fmt.Fprintf(&b, ":- h(%s,%s), h(%s,%s).\n",
			p.atoms[k[0]].X, p.atoms[k[0]].Y, p.atoms[k[1]].X, p.atoms[k[1]].Y)
	}
	for _, imp := range p.implies {
		a, i := p.atoms[imp[0]], p.atoms[imp[1]]
		fmt.Fprintf(&b, ":- h(%s,%s), not h(%s,%s).\n", a.X, a.Y, i.X, i.Y)
	}
	var costs []string
	for _, a := range p.atoms {
		if a.Weight > 0 {
			costs = append(costs, fmt.Sprintf("%d,%s,%s : h(%s,%s)", a.Weight, a.X, a.Y, a.X, a.Y))
		}
	}
	if len(costs) > 0 {
		fmt.Fprintf(&b, "#minimize { %s }.\n", strings.Join(costs, "; "))
	}
	return b.String()
}
