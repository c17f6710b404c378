// Package match implements the graph-matching operations of ProvMark's
// generalization and comparison stages by grounding them into the asp
// package's program class:
//
//   - Similar: property-graph similarity (Listing 3 without properties) —
//     an exact isomorphism on structure and labels;
//   - GeneralizePair: similarity plus #minimize over property mismatches;
//     the result keeps only properties whose values agree across the
//     matched pair (volatile data such as timestamps is discarded);
//   - SubgraphEmbed: approximate subgraph isomorphism (Listing 4) —
//     an injective label/endpoint-preserving embedding of the background
//     graph into the foreground graph minimizing mismatched properties;
//   - Subtract: removes the embedded background from the foreground,
//     retaining dummy nodes for pre-existing endpoints of result edges.
//
// # Fingerprint-then-confirm contract
//
// Similar consults graph.ShapeFingerprint before any search. The
// fingerprint check is a necessary-condition filter only: unequal
// fingerprints prove non-similarity, but equal fingerprints never
// certify similarity — a confirming engine always has the final word.
// The confirmer is the forced-mapping verifier when the WL refinement
// is discrete on both graphs (the colour-respecting candidate mapping
// is unique, so an O(V+E) verification decides the pair without any
// search), and otherwise the ASP solver. The differential tests check
// every decision against two frozen oracles that bypass the
// fingerprint filter entirely (oracle_test.go): the pure-ASP path and a
// VF2-style backtracker.
package match

import (
	"errors"
	"fmt"
	"slices"

	"provmark/internal/asp"
	"provmark/internal/graph"
)

// Mapping maps elements of G1 (nodes and edges) to elements of G2.
type Mapping map[graph.ElemID]graph.ElemID

// ErrNotSimilar is returned when no structure/label isomorphism exists.
var ErrNotSimilar = errors.New("match: graphs are not similar")

// ErrNoEmbedding is returned when the background graph cannot be
// embedded in the foreground graph. The paper assumes provenance
// recording is monotonic so this indicates a failed/garbled trial.
var ErrNoEmbedding = errors.New("match: no subgraph embedding exists")

// encoding records, for each asp group, which G1 element it stands for.
// Each atom's Y names the G2 element it maps onto.
type encoding struct {
	problem *asp.Problem
	groupOf []graph.ElemID // group index -> G1 element
}

func (enc *encoding) decode(sol *asp.Solution) Mapping {
	m := make(Mapping, len(enc.groupOf))
	for gi, a := range sol.Selected {
		at := enc.problem.Atom(a)
		m[enc.groupOf[gi]] = graph.ElemID(at.Y)
	}
	return m
}

// Similar reports whether g1 and g2 are similar (same shape and labels,
// properties ignored) and returns a witnessing isomorphism. It is the
// production decision path: cheap invariants first (counts, label
// multisets, memoized shape fingerprints — necessary conditions only),
// then the forced-mapping verifier when the WL colouring is discrete,
// and the ASP solver only when symmetry leaves a genuine choice.
func Similar(g1, g2 *graph.Graph) (Mapping, bool) {
	if !sameShape(g1, g2) {
		return nil, false
	}
	if g1.Fingerprint() != g2.Fingerprint() {
		return nil, false
	}
	if m, ok, decided := similarForced(g1, g2); decided {
		return m, ok
	}
	return solveIso(g1, g2)
}

// sameShape checks the trivially sound similarity preconditions:
// element counts and label multisets.
func sameShape(g1, g2 *graph.Graph) bool {
	return g1.NumNodes() == g2.NumNodes() &&
		g1.NumEdges() == g2.NumEdges() &&
		graph.SameLabelCounts(g1, g2)
}

// solveIso grounds Listing 3 and runs the ASP solver.
func solveIso(g1, g2 *graph.Graph) (Mapping, bool) {
	enc, err := encodeIso(g1, g2, nil)
	if err != nil {
		return nil, false
	}
	sol, err := enc.problem.Solve()
	if err != nil {
		return nil, false
	}
	return enc.decode(sol), true
}

// GeneralizePair finds the structure isomorphism between two similar
// graphs that minimizes property disagreements, then returns a copy of
// g1 with every disagreeing property removed. This implements the
// generalization stage: the surviving properties are those invariant
// across trials.
func GeneralizePair(g1, g2 *graph.Graph) (*graph.Graph, Mapping, error) {
	if !sameShape(g1, g2) {
		return nil, nil, ErrNotSimilar
	}
	enc, err := encodeIso(g1, g2, propDiffWeight)
	if err != nil {
		return nil, nil, ErrNotSimilar
	}
	sol, err := enc.problem.SolveMin()
	if err != nil {
		return nil, nil, ErrNotSimilar
	}
	m := enc.decode(sol)
	out := g1.Clone()
	for _, n := range g1.Nodes() {
		keepCommonProps(out, n.ID, n.Props, elemProps(g2, m[n.ID]))
	}
	for _, e := range g1.Edges() {
		keepCommonProps(out, e.ID, e.Props, elemProps(g2, m[e.ID]))
	}
	return out, m, nil
}

// SubgraphEmbed finds a minimum-property-cost injective embedding of bg
// into fg (Listing 4) and returns the mapping plus its cost.
func SubgraphEmbed(bg, fg *graph.Graph) (Mapping, int, error) {
	if bg.NumNodes() > fg.NumNodes() || bg.NumEdges() > fg.NumEdges() {
		return nil, 0, ErrNoEmbedding
	}
	enc, err := encodeSubgraph(bg, fg)
	if err != nil {
		return nil, 0, ErrNoEmbedding
	}
	sol, err := enc.problem.SolveMin()
	if err != nil {
		return nil, 0, ErrNoEmbedding
	}
	return enc.decode(sol), sol.Cost, nil
}

// Subtract removes the matched image of bg from fg. The remaining nodes
// and edges form the benchmark result; any result edge whose endpoint
// was part of the background is re-attached to a dummy node (the paper's
// green/gray nodes standing for pre-existing graph parts).
func Subtract(fg *graph.Graph, m Mapping) *graph.Graph {
	matched := make(map[graph.ElemID]bool, len(m))
	for _, y := range m {
		matched[y] = true
	}
	out := graph.New()
	dummies := make(map[graph.ElemID]graph.ElemID)
	for _, n := range fg.Nodes() {
		if !matched[n.ID] {
			mustInsertNode(out, n.ID, n.Label, n.Props)
		}
	}
	dummyFor := func(id graph.ElemID) graph.ElemID {
		if d, ok := dummies[id]; ok {
			return d
		}
		orig := fg.Node(id)
		d := graph.ElemID("dummy_" + string(id))
		mustInsertNode(out, d, "dummy", graph.Properties{"stands_for": orig.Label})
		dummies[id] = d
		return d
	}
	for _, e := range fg.Edges() {
		if matched[e.ID] {
			continue
		}
		src, tgt := e.Src, e.Tgt
		if matched[src] {
			src = dummyFor(src)
		}
		if matched[tgt] {
			tgt = dummyFor(tgt)
		}
		if err := out.InsertEdge(e.ID, src, tgt, e.Label, e.Props); err != nil {
			panic("match: subtract: " + err.Error()) // ids copied from fg cannot collide
		}
	}
	return out
}

func mustInsertNode(g *graph.Graph, id graph.ElemID, label string, props graph.Properties) {
	if err := g.InsertNode(id, label, props); err != nil {
		panic("match: " + err.Error())
	}
}

// weightFunc scores a candidate pair of property dictionaries.
type weightFunc func(a, b graph.Properties) int

// propDiffWeight counts keys whose values disagree or exist on only one
// side — the generalization objective.
func propDiffWeight(a, b graph.Properties) int {
	w := 0
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			w++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			w++
		}
	}
	return w
}

// subgraphCost counts properties of the background element with no
// exactly matching property on the foreground element — Listing 4's
// cost/3 definition (missing key costs 1, differing value costs 1).
func subgraphCost(bgProps, fgProps graph.Properties) int {
	w := 0
	for k, v := range bgProps {
		if fv, ok := fgProps[k]; !ok || fv != v {
			w++
		}
	}
	return w
}

func elemProps(g *graph.Graph, id graph.ElemID) graph.Properties {
	if n := g.Node(id); n != nil {
		return n.Props
	}
	if e := g.Edge(id); e != nil {
		return e.Props
	}
	return nil
}

func keepCommonProps(out *graph.Graph, id graph.ElemID, mine, theirs graph.Properties) {
	for k, v := range mine {
		if tv, ok := theirs[k]; !ok || tv != v {
			out.DeleteProp(id, k)
		}
	}
}

// encodeIso grounds Listing 3 (full isomorphism with optional weights).
// WL-colour pruning is sound here: any label-preserving isomorphism maps
// nodes to nodes of the same refined colour, so a g1 node's candidates
// are the g2 nodes of its (label, colour) bucket.
func encodeIso(g1, g2 *graph.Graph, wf weightFunc) (*encoding, error) {
	c1 := graph.WLColors(g1, graph.CanonRounds)
	c2 := graph.WLColors(g2, graph.CanonRounds)
	type nodeKey struct{ label, color string }
	buckets := make(map[nodeKey][]int32)
	for i, n := range g2.Nodes() {
		k := nodeKey{n.Label, c2[n.ID]}
		buckets[k] = append(buckets[k], int32(i))
	}
	if wf == nil {
		wf = func(graph.Properties, graph.Properties) int { return 0 }
	}
	return ground(g1, g2, func(n1 *graph.Node) []int32 {
		return buckets[nodeKey{n1.Label, c1[n1.ID]}]
	}, wf)
}

// encodeSubgraph grounds Listing 4. WL pruning is unsound for subgraph
// embedding (the foreground has extra structure), so candidates are
// filtered only by label and per-label degree bounds: every edge label
// incident to a bg node must be at least as frequent, in the same
// direction, at its fg candidate.
func encodeSubgraph(bg, fg *graph.Graph) (*encoding, error) {
	need, have := labelDegrees(bg), labelDegrees(fg)
	fgNodes := fg.Nodes()
	byLabel := make(map[string][]int32)
	for i, n := range fgNodes {
		byLabel[n.Label] = append(byLabel[n.Label], int32(i))
	}
	return ground(bg, fg, func(x *graph.Node) []int32 {
		var cands []int32
	next:
		for _, i := range byLabel[x.Label] {
			for k, v := range need[x.ID] {
				if have[fgNodes[i].ID][k] < v {
					continue next
				}
			}
			cands = append(cands, i)
		}
		return cands
	}, subgraphCost)
}

// degreeKey is one (direction, edge label) class of a node's incident
// edges.
type degreeKey struct {
	out   bool
	label string
}

// labelDegrees counts each node's incident edges per degreeKey.
func labelDegrees(g *graph.Graph) map[graph.ElemID]map[degreeKey]int {
	deg := make(map[graph.ElemID]map[degreeKey]int, g.NumNodes())
	add := func(id graph.ElemID, k degreeKey) {
		m := deg[id]
		if m == nil {
			m = make(map[degreeKey]int)
			deg[id] = m
		}
		m[k]++
	}
	for _, e := range g.Edges() {
		add(e.Src, degreeKey{true, e.Label})
		add(e.Tgt, degreeKey{false, e.Label})
	}
	return deg
}

// ground builds the matching program of g1 into g2 shared by Listings 3
// and 4: one selection group per g1 node, then per g1 edge; node
// candidates are the g2 node indices nodeCands returns, ascending (g2
// order); edge candidates are the same-label g2 edges, in g2 order,
// whose endpoints are candidates of the g1 edge's endpoints, each
// implying those endpoint atoms; and one at-most-one set per g2 element
// over the atoms mapping onto it (the injectivity rules :- X<>Y,
// h(X,Z), h(Y,Z)).
func ground(g1, g2 *graph.Graph, nodeCands func(*graph.Node) []int32, wf weightFunc) (*encoding, error) {
	p := asp.NewProblem()
	enc := &encoding{problem: p}
	nodes1, nodes2, edges2 := g1.Nodes(), g2.Nodes(), g2.Edges()
	// usedBy lists the atoms mapping onto each g2 node, then each g2 edge.
	usedBy := make([][]asp.AtomID, len(nodes2)+len(edges2))

	// The atoms of g1 node i1 are first[i1], first[i1]+1, ... for the
	// g2 nodes cands[i1], in that order.
	cands := make([][]int32, len(nodes1))
	first := make([]asp.AtomID, len(nodes1))
	index1 := make(map[graph.ElemID]int32, len(nodes1))
	for i1, n1 := range nodes1 {
		index1[n1.ID] = int32(i1)
		gi := p.AddGroup("node " + string(n1.ID))
		enc.groupOf = append(enc.groupOf, n1.ID)
		cands[i1] = nodeCands(n1)
		if len(cands[i1]) == 0 {
			return nil, fmt.Errorf("node %s has no candidates", n1.ID)
		}
		first[i1] = asp.AtomID(p.NumAtoms())
		for _, i2 := range cands[i1] {
			n2 := nodes2[i2]
			a := p.AddAtom(gi, string(n1.ID), string(n2.ID), wf(n1.Props, n2.Props))
			usedBy[i2] = append(usedBy[i2], a)
		}
	}
	nodeAtom := func(i1, i2 int32) (asp.AtomID, bool) {
		k, found := slices.BinarySearch(cands[i1], i2)
		return first[i1] + asp.AtomID(k), found
	}

	index2 := make(map[graph.ElemID]int32, len(nodes2))
	for i, n := range nodes2 {
		index2[n.ID] = int32(i)
	}
	edgesByLabel := make(map[string][]int32)
	ends2 := make([][2]int32, len(edges2))
	for j, e := range edges2 {
		edgesByLabel[e.Label] = append(edgesByLabel[e.Label], int32(j))
		ends2[j] = [2]int32{index2[e.Src], index2[e.Tgt]}
	}
	for _, e1 := range g1.Edges() {
		gi := p.AddGroup("edge " + string(e1.ID))
		enc.groupOf = append(enc.groupOf, e1.ID)
		src, tgt := index1[e1.Src], index1[e1.Tgt]
		any := false
		for _, j := range edgesByLabel[e1.Label] {
			sa, okS := nodeAtom(src, ends2[j][0])
			ta, okT := nodeAtom(tgt, ends2[j][1])
			if !okS || !okT {
				continue
			}
			e2 := edges2[j]
			a := p.AddAtom(gi, string(e1.ID), string(e2.ID), wf(e1.Props, e2.Props))
			usedBy[len(nodes2)+int(j)] = append(usedBy[len(nodes2)+int(j)], a)
			p.AddImplication(a, sa)
			p.AddImplication(a, ta)
			any = true
		}
		if !any {
			return nil, fmt.Errorf("edge %s has no candidates", e1.ID)
		}
	}
	for _, atoms := range usedBy {
		p.AddAtMostOne(atoms)
	}
	return enc, nil
}
