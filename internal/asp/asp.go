// Package asp implements the answer-set-programming fragment ProvMark
// needs to solve its two graph-matching listings (Listing 3, graph
// similarity; Listing 4, approximate subgraph isomorphism with a
// #minimize objective). The paper uses the clingo solver; this package
// is a self-contained replacement covering the same program class:
//
//   - cardinality-1 choice rules  {h(X,Y) : ...} = 1 :- item(X)
//     become selection groups: exactly one atom per group is true;
//   - the injectivity rules :- X<>Y, h(X,Z), h(Y,Z) become each atom's
//     target Z: no two selected atoms may share a target;
//   - constraints of the form :- h(E1,E2), not h(X,Y) (edge endpoint
//     preservation) become implications h(E1,E2) -> h(X,Y);
//   - #minimize { PC,X,K : cost(X,K,PC) } becomes per-atom integer
//     weights whose selected sum is minimized.
//
// Label-preservation constraints are handled at grounding time: atoms
// whose labels disagree are simply never generated, exactly as a
// grounder would delete rules with unsatisfiable bodies.
//
// A ground problem carries no names: an atom is its group, target and
// weight; a group's atoms are one contiguous range of the atom array,
// an atom's implications one contiguous range of the implication
// array; and the caller keeps what each group and target stands for.
//
// The solver is a depth-first search with unit propagation and
// branch-and-bound pruning on the weight objective. It branches on the
// open group with the fewest alive candidates (the lowest index on
// ties) and, under SolveMin, tries them cheapest first, stopping at
// the first candidate whose child the bound would prune on entry.
// Selecting an atom kills the other candidates of its group and the
// other atoms of its target, then selects the atoms it implies,
// recursively; the selection fails when it contradicts an earlier one
// or leaves some group without a candidate. Every kill and selection
// goes on a trail that backtracking unwinds. The search keeps each
// group's count of alive candidates, the number of groups left with
// none, and under SolveMin each open group's cheapest alive candidate,
// updating them as atoms die and revive; so picking a group, detecting
// a wiped-out group and computing the bound never rescan the atoms. The
// search state is sized from the problem, and the atoms sorted by
// target, once per solve. The search is deterministic: given the same
// problem it makes the same choices in the same order, and
// Solution.Nodes reports how many search nodes it visited.
package asp

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// AtomID indexes an atom within a Problem.
type AtomID int32

// Atom is one ground instance h(X, Y) of the matching relation: X is
// its group and Y its target. The caller that grounds it knows which X
// and Y those numbers stand for.
type Atom struct {
	Group  int32 // selection group this atom belongs to
	Target int32 // no two selected atoms may share a target
	Weight int32 // objective contribution when selected
}

// Problem is a ground matching program.
type Problem struct {
	atoms   []Atom
	bounds  []int32  // group g's atoms are bounds[g] up to bounds[g+1]
	implied []AtomID // atom a implies implied[impBounds[a]:impBounds[a+1]]
	// impBounds has one entry per atom plus a leading 0.
	impBounds []int32
}

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{bounds: []int32{0}, impBounds: []int32{0}}
}

// Grow reserves room for the given numbers of further groups, atoms
// and implications, so that a caller who counts them first fills the
// problem without reallocating.
func (p *Problem) Grow(groups, atoms, implications int) {
	p.bounds = slices.Grow(p.bounds, groups)
	p.atoms = slices.Grow(p.atoms, atoms)
	p.impBounds = slices.Grow(p.impBounds, atoms)
	p.implied = slices.Grow(p.implied, implications)
}

// AddGroup creates a selection group (one X that must be matched) and
// returns its index. Atoms are added to the newest group only.
func (p *Problem) AddGroup() int {
	p.bounds = append(p.bounds, int32(len(p.atoms)))
	return len(p.bounds) - 2
}

// AddAtom adds a candidate atom mapping group, which must be the newest
// group, onto target, and returns its id. Targets are small
// non-negative integers, such as indices of the elements they stand
// for; a target no other atom has leaves the atom unconstrained.
func (p *Problem) AddAtom(group, target, weight int) AtomID {
	if group != len(p.bounds)-2 {
		panic("asp: AddAtom on a group other than the newest")
	}
	id := AtomID(len(p.atoms))
	p.atoms = append(p.atoms, Atom{Group: int32(group), Target: int32(target), Weight: int32(weight)})
	p.bounds[group+1]++
	p.impBounds = append(p.impBounds, int32(len(p.implied)))
	return id
}

// span returns group g's atoms as the id range [lo, hi).
func (p *Problem) span(g int) (lo, hi AtomID) {
	return AtomID(p.bounds[g]), AtomID(p.bounds[g+1])
}

// AddImplication records that selecting a forces selecting b. a must
// be the newest atom and b an existing one, so each atom's implications
// are one contiguous range.
func (p *Problem) AddImplication(a, b AtomID) {
	if int(a) != len(p.atoms)-1 || b < 0 || b > a {
		panic("asp: AddImplication from an atom other than the newest")
	}
	p.implied = append(p.implied, b)
	p.impBounds[a+1]++
}

// Implied returns the atoms that selecting a forces, in the order
// AddImplication recorded them. The slice is shared and must not be
// modified.
func (p *Problem) Implied(a AtomID) []AtomID {
	return p.implied[p.impBounds[a]:p.impBounds[a+1]]
}

// Atom returns the atom with the given id.
func (p *Problem) Atom(id AtomID) Atom { return p.atoms[id] }

// NumAtoms reports how many ground atoms the problem has.
func (p *Problem) NumAtoms() int { return len(p.atoms) }

// NumGroups reports how many selection groups the problem has.
func (p *Problem) NumGroups() int { return len(p.bounds) - 1 }

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
	Nodes    int // search nodes Solve or SolveMin visited; 0 under SolveAll
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
	s.visit = func(sol *Solution) bool {
		count++
		return fn(sol) && (limit <= 0 || count < limit)
	}
	s.search()
	return count
}

// state carries the mutable search data. Every atom removal and
// selection is trailed for backtracking, and the per-group counts
// derived from them are updated as atoms die and revive, so no search
// step rescans the atoms.
type state struct {
	p *Problem
	// byTarget lists the atoms sorted by target, in id order within a
	// target: target t's are byTarget[targetStart[t]:targetStart[t+1]].
	byTarget    []AtomID
	targetStart []int32
	alive       []bool   // per atom
	chosen      []AtomID // per group, -1 if open
	nAlive      []int32  // per group: alive candidates
	empty       int      // groups with no alive candidate
	cost        int
	trail       []AtomID // killed atoms, and ^a for each selection of a
	// Under SolveMin only: order lists every group's atoms stably
	// sorted by weight, in the group's own range of the atom array.
	// While g is open, order[head[g]] is its first alive atom there,
	// whose weight is g's least alive weight. headTrail holds the heads
	// it replaced, for undo.
	order     []AtomID
	head      []int32
	headTrail []headUndo
	marks     []mark
	stack     []AtomID             // candidate lists of the open search levels
	nodes     int                  // search() entries
	visit     func(*Solution) bool // under SolveAll: takes each model, false stops
	best      *Solution
	bestCost  int
	optimize  bool
}

type headUndo struct{ group, head int32 }

// mark records the trail lengths at a choice point.
type mark struct{ trail, headTrail int32 }

// emptyGroup returns the first group with no candidates, or -1.
func (p *Problem) emptyGroup() int {
	for gi := 0; gi < p.NumGroups(); gi++ {
		if lo, hi := p.span(gi); lo == hi {
			return gi
		}
	}
	return -1
}

// newState builds the search state with every atom alive, its slices
// sized for the deepest search: a trail entry per kill and selection, a
// stack and head-trail entry per atom, and a mark per group.
func (p *Problem) newState(optimize bool) *state {
	n, groups := len(p.atoms), p.NumGroups()
	s := &state{
		p:        p,
		alive:    make([]bool, n),
		chosen:   make([]AtomID, groups),
		nAlive:   make([]int32, groups),
		trail:    make([]AtomID, 0, n+groups),
		marks:    make([]mark, 0, groups+1),
		stack:    make([]AtomID, 0, n),
		optimize: optimize,
		bestCost: int(^uint(0) >> 1),
	}
	// Sort the atoms by target with a counting sort. Counting t's atoms
	// into targetStart[t+2] and summing makes targetStart[t+1] the
	// first slot of t's; placing them moves it to their end, which is
	// where t+1's begin, so afterwards t's start at targetStart[t].
	targets := int32(0)
	for _, at := range p.atoms {
		targets = max(targets, at.Target+1)
	}
	s.targetStart = make([]int32, targets+2)
	for _, at := range p.atoms {
		s.targetStart[at.Target+2]++
	}
	for t := 2; t < len(s.targetStart); t++ {
		s.targetStart[t] += s.targetStart[t-1]
	}
	s.byTarget = make([]AtomID, n)
	for a, at := range p.atoms {
		s.byTarget[s.targetStart[at.Target+1]] = AtomID(a)
		s.targetStart[at.Target+1]++
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	for gi := range s.chosen {
		s.chosen[gi] = -1
		s.nAlive[gi] = p.bounds[gi+1] - p.bounds[gi]
	}
	if optimize {
		s.order = make([]AtomID, n)
		s.head = make([]int32, groups)
		s.headTrail = make([]headUndo, 0, n)
		for a := range s.order {
			s.order[a] = AtomID(a)
		}
		for gi := range s.head {
			s.head[gi] = p.bounds[gi]
			slices.SortStableFunc(s.order[p.bounds[gi]:p.bounds[gi+1]], func(a, b AtomID) int {
				return cmp.Compare(p.atoms[a].Weight, p.atoms[b].Weight)
			})
		}
	}
	return s
}

func (p *Problem) solve(optimize bool) (*Solution, error) {
	solveInvocations.Add(1)
	if gi := p.emptyGroup(); gi >= 0 {
		return nil, fmt.Errorf("%w: group %d has no candidates", ErrUnsat, gi)
	}
	s := p.newState(optimize)
	s.search()
	if s.best == nil {
		return nil, ErrUnsat
	}
	s.best.Nodes = s.nodes
	return s.best, nil
}

// weight returns atom a's weight.
func (s *state) weight(a AtomID) int { return int(s.p.atoms[a].Weight) }

// lowerBound sums, over open groups, the minimum weight among alive
// candidates. This is an admissible bound for branch-and-bound.
func (s *state) lowerBound() int {
	lb := s.cost
	for gi, c := range s.chosen {
		if c < 0 {
			lb += s.weight(s.order[s.head[gi]])
		}
	}
	return lb
}

// pickGroup returns the open group with the fewest alive candidates
// (minimum remaining values, lowest index on ties), or -1 if all
// groups are decided.
func (s *state) pickGroup() int {
	best, bestN := -1, int32(^uint32(0)>>1)
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
	lo, hi := s.p.span(gi)
	if s.optimize {
		for _, a := range s.order[s.head[gi]:hi] {
			if s.alive[a] {
				s.stack = append(s.stack, a)
			}
		}
	} else {
		for a := lo; a < hi; a++ {
			if s.alive[a] {
				s.stack = append(s.stack, a)
			}
		}
	}
	return s.stack[base:]
}

func (s *state) popCandidates(cands []AtomID) {
	s.stack = s.stack[:len(s.stack)-len(cands)]
}

// search explores the subtree below the current state and reports
// whether to stop: Solve stops at its first model, SolveAll when visit
// says so, and SolveMin never.
func (s *state) search() bool {
	s.nodes++
	if s.optimize && s.best != nil && s.lowerBound() >= s.bestCost {
		return false
	}
	gi := s.pickGroup()
	if gi < 0 {
		s.best = &Solution{Selected: append([]AtomID(nil), s.chosen...), Cost: s.cost}
		s.bestCost = s.cost
		if s.visit != nil {
			return !s.visit(s.best)
		}
		return !s.optimize
	}
	cands := s.pushCandidates(gi)
	defer s.popCandidates(cands)
	lb, haveLB := 0, false
	for _, a := range cands {
		// Cut the remaining siblings by the bound. Choosing a replaces
		// gi's least alive weight (its head's, cands[0]) by a's, the
		// least alive weight of each group an implied atom settles by
		// that atom's (no lighter, as it is alive here), and only kills
		// atoms of the other open groups, which cannot lower their
		// least weights. So the child's bound is at least
		// lb - weight(cands[0]) + weight(a); once that reaches bestCost
		// the child would be pruned on entry, and so would every later
		// candidate, which is at least as heavy. lb is this level's
		// bound, and undo restores this level's state after each child.
		if s.optimize && s.best != nil {
			if !haveLB {
				lb, haveLB = s.lowerBound(), true
			}
			if lb-s.weight(cands[0])+s.weight(a) >= s.bestCost {
				break
			}
		}
		if !s.alive[a] {
			continue
		}
		stop := s.choose(a) && s.search()
		s.undo()
		if stop {
			return true
		}
	}
	return false
}

// choose selects atom a and propagates: kill the group's other
// candidates, kill every other atom of a's target, and force
// implications (recursively). It returns false if propagation
// wipes out some group or contradicts an earlier choice; the caller
// must still undo.
func (s *state) choose(a AtomID) bool {
	s.marks = append(s.marks, mark{int32(len(s.trail)), int32(len(s.headTrail))})
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
	s.cost += int(at.Weight)
	s.trail = append(s.trail, ^a)
	lo, hi := s.p.span(int(at.Group))
	for other := lo; other < hi; other++ {
		if other != a && s.alive[other] {
			s.kill(other)
		}
	}
	// Selecting an atom kills the rest of its target, so while a is
	// alive no atom of its target is selected, and killing the rest
	// keeps targets injective.
	t := at.Target
	for _, b := range s.byTarget[s.targetStart[t]:s.targetStart[t+1]] {
		if b != a && s.alive[b] {
			s.kill(b)
		}
	}
	for _, imp := range s.p.Implied(a) {
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
	if s.optimize && s.chosen[g] < 0 && s.order[s.head[g]] == a {
		s.headTrail = append(s.headTrail, headUndo{g, s.head[g]})
		h := s.head[g] + 1
		for !s.alive[s.order[h]] {
			h++
		}
		s.head[g] = h
	}
}

func (s *state) undo() {
	m := s.marks[len(s.marks)-1]
	s.marks = s.marks[:len(s.marks)-1]
	for len(s.trail) > int(m.trail) {
		x := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		if x < 0 {
			at := s.p.atoms[^x]
			s.chosen[at.Group] = -1
			s.cost -= int(at.Weight)
			continue
		}
		s.alive[x] = true
		g := s.p.atoms[x].Group
		if s.nAlive[g] == 0 {
			s.empty--
		}
		s.nAlive[g]++
	}
	for len(s.headTrail) > int(m.headTrail) {
		u := s.headTrail[len(s.headTrail)-1]
		s.headTrail = s.headTrail[:len(s.headTrail)-1]
		s.head[u.group] = u.head
	}
}
