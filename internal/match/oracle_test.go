package match

import (
	"sort"

	"provmark/internal/graph"
)

// The frozen similarity oracles. They are exported so the external
// test package (the four-path differential, the seed classification
// scan and the matcher ablation benchmarks) can reach them.

// SimilarASP decides similarity purely through the ASP solver (after
// the trivially sound count/label prechecks). It never consults shape
// fingerprints, making it an independent oracle for the differential
// harness and the faithful reproduction of the paper's clingo path.
func SimilarASP(g1, g2 *graph.Graph) (Mapping, bool) {
	if !sameShape(g1, g2) {
		return nil, false
	}
	return solveIso(g1, g2)
}

// SimilarDirect is a hand-rolled VF2-style backtracking similarity check
// used as an ablation baseline and as an independent oracle for the
// ASP-encoded path: tests assert both engines agree on every pipeline
// matching decision.
func SimilarDirect(g1, g2 *graph.Graph) (Mapping, bool) {
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		return nil, false
	}
	if !graph.SameLabelCounts(g1, g2) {
		return nil, false
	}
	c1, c2 := g1.Colors(), g2.Colors()

	// Candidate sets per G1 node, ordered smallest-first for fail-fast.
	nodes1 := g1.Nodes()
	cands := make(map[graph.ElemID][]graph.ElemID, len(nodes1))
	for i1, n1 := range nodes1 {
		for i2, n2 := range g2.Nodes() {
			if n1.Label == n2.Label && c1[i1] == c2[i2] {
				cands[n1.ID] = append(cands[n1.ID], n2.ID)
			}
		}
		if len(cands[n1.ID]) == 0 {
			return nil, false
		}
	}
	sort.SliceStable(nodes1, func(i, j int) bool {
		return len(cands[nodes1[i].ID]) < len(cands[nodes1[j].ID])
	})

	assign := make(Mapping, g1.Size())
	used := make(map[graph.ElemID]bool, g2.NumNodes())

	// consistent checks that every edge between already-assigned nodes
	// has a counterpart with the right label, in both directions.
	edgeIndex := buildEdgeIndex(g2)
	consistent := func(x, y graph.ElemID) bool {
		for _, e := range g1.Edges() {
			var wantSrc, wantTgt graph.ElemID
			switch {
			case e.Src == x && e.Tgt == x:
				wantSrc, wantTgt = y, y
			case e.Src == x:
				t, ok := assign[e.Tgt]
				if !ok {
					continue
				}
				wantSrc, wantTgt = y, t
			case e.Tgt == x:
				s, ok := assign[e.Src]
				if !ok {
					continue
				}
				wantSrc, wantTgt = s, y
			default:
				continue
			}
			if edgeIndex[edgeKey{wantSrc, wantTgt, e.Label}] == 0 {
				return false
			}
		}
		return true
	}

	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(nodes1) {
			return true
		}
		x := nodes1[i].ID
		for _, y := range cands[x] {
			if used[y] || !consistent(x, y) {
				continue
			}
			assign[x] = y
			used[y] = true
			if rec(i + 1) {
				return true
			}
			delete(assign, x)
			used[y] = false
		}
		return false
	}
	if !rec(0) {
		return nil, false
	}
	// Extend the node mapping to edges (must be a bijection on edges too;
	// counts were checked upfront and endpoints are consistent).
	usedEdges := make(map[graph.ElemID]bool, g2.NumEdges())
	for _, e1 := range g1.Edges() {
		found := false
		for _, e2 := range g2.Edges() {
			if usedEdges[e2.ID] || e2.Label != e1.Label {
				continue
			}
			if e2.Src == assign[e1.Src] && e2.Tgt == assign[e1.Tgt] {
				assign[e1.ID] = e2.ID
				usedEdges[e2.ID] = true
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return assign, true
}

func buildEdgeIndex(g *graph.Graph) map[edgeKey]int {
	idx := make(map[edgeKey]int, g.NumEdges())
	for _, e := range g.Edges() {
		idx[edgeKey{e.Src, e.Tgt, e.Label}]++
	}
	return idx
}

// VerifyMapping checks that m is a valid label/endpoint-preserving
// injective mapping from g1 into g2 covering every element of g1.
func VerifyMapping(g1, g2 *graph.Graph, m Mapping) bool {
	seen := make(map[graph.ElemID]bool, len(m))
	for _, n := range g1.Nodes() {
		y, ok := m[n.ID]
		if !ok || seen[y] {
			return false
		}
		seen[y] = true
		n2 := g2.Node(y)
		if n2 == nil || n2.Label != n.Label {
			return false
		}
	}
	for _, e := range g1.Edges() {
		y, ok := m[e.ID]
		if !ok || seen[y] {
			return false
		}
		seen[y] = true
		e2 := g2.Edge(y)
		if e2 == nil || e2.Label != e.Label {
			return false
		}
		if m[e.Src] != e2.Src || m[e.Tgt] != e2.Tgt {
			return false
		}
	}
	return true
}
