package match

import (
	"provmark/internal/graph"
)

// similarForced decides similarity without search when the WL
// refinement is discrete (every node has a unique colour) on both
// graphs. Any label-preserving isomorphism must map each node to a node
// of equal refined colour, so a discrete colouring forces a unique
// candidate mapping; verifying that mapping in O(V+E) decides the pair
// both ways:
//
//   - the forced mapping is an isomorphism -> similar, with witness;
//   - the forced mapping fails (missing colour, label clash, edge
//     mismatch) -> no isomorphism can exist.
//
// When either colouring has a repeated colour the pair is left
// undecided (decided=false) and the caller falls back to the solver.
// Callers must have checked node/edge counts beforehand.
func similarForced(g1, g2 *graph.Graph) (m Mapping, ok, decided bool) {
	c1 := graph.WLColors(g1, graph.CanonRounds)
	c2 := graph.WLColors(g2, graph.CanonRounds)

	byColor2 := make(map[string]graph.ElemID, g2.NumNodes())
	for _, n := range g2.Nodes() {
		if _, dup := byColor2[c2[n.ID]]; dup {
			return nil, false, false
		}
		byColor2[c2[n.ID]] = n.ID
	}
	seen1 := make(map[string]bool, g1.NumNodes())
	for _, n := range g1.Nodes() {
		if seen1[c1[n.ID]] {
			return nil, false, false
		}
		seen1[c1[n.ID]] = true
	}

	// Both colourings are discrete; the colour-respecting mapping is
	// forced and injective (equal node counts were checked upfront).
	m = make(Mapping, g1.Size())
	for _, n := range g1.Nodes() {
		y, found := byColor2[c1[n.ID]]
		if !found || g2.Node(y).Label != n.Label {
			return nil, false, true
		}
		m[n.ID] = y
	}

	// Verify and extend to edges: each g1 edge must consume a distinct
	// g2 edge between the mapped endpoints with the same label. Equal
	// edge counts make the consumed set a bijection.
	idx := make(map[edgeKey][]graph.ElemID, g2.NumEdges())
	for _, e := range g2.Edges() {
		k := edgeKey{e.Src, e.Tgt, e.Label}
		idx[k] = append(idx[k], e.ID)
	}
	for _, e := range g1.Edges() {
		k := edgeKey{m[e.Src], m[e.Tgt], e.Label}
		q := idx[k]
		if len(q) == 0 {
			return nil, false, true
		}
		m[e.ID] = q[len(q)-1]
		idx[k] = q[:len(q)-1]
	}
	return m, true, true
}

// edgeKey identifies an edge by its endpoints and label.
type edgeKey struct {
	src, tgt graph.ElemID
	label    string
}
