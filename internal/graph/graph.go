// Package graph implements the labelled property-graph model used
// throughout ProvMark: G = (V, E, src, tgt, lab, prop) where V and E are
// disjoint identifier sets, every node and edge carries a label from a
// finite alphabet, and prop is a partial map from (element, key) to a
// string value (Section 3.3 of the paper).
//
// Graphs are mutable builders with deterministic iteration order: nodes
// and edges are reported in insertion order so that repeated pipeline
// runs over the same activity yield byte-identical serializations.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ElemID identifies a node or an edge within one graph. Node and edge
// identifier spaces are disjoint by construction (nodes are "n<k>",
// edges are "e<k>" when allocated by the graph; parsers may install
// arbitrary disjoint names).
type ElemID string

// Properties is a key-value dictionary attached to a node or edge.
type Properties map[string]string

// Node is a labelled vertex with properties.
type Node struct {
	ID    ElemID
	Label string
	Props Properties
}

// Edge is a directed labelled edge with properties.
type Edge struct {
	ID    ElemID
	Src   ElemID
	Tgt   ElemID
	Label string
	Props Properties
}

// Graph is a property graph. The zero value is not usable; call New.
type Graph struct {
	nodes    map[ElemID]*Node
	edges    map[ElemID]*Edge
	nodeIDs  []ElemID // insertion order
	edgeIDs  []ElemID // insertion order
	nextNode int
	nextEdge int
	// outAdj / inAdj index incident edge ids per node, in insertion
	// order, so neighbourhood scans (WL refinement, degree checks) do
	// not traverse the full edge list.
	outAdj map[ElemID][]ElemID
	inAdj  map[ElemID][]ElemID
	canon  canonCache
}

// canonCache memoizes the canonical WL refinement of the graph: the
// round-`canonRounds` colours and the shape fingerprint derived from
// them. It is invalidated on every structural mutation (node/edge
// insertion or removal). Property edits do not invalidate it — the
// fingerprint is property-insensitive by design. Mutating labels
// directly through pointers returned by Node/Nodes bypasses the cache;
// all in-tree code mutates labels only before first fingerprint use.
type canonCache struct {
	mu    sync.Mutex
	valid bool
	fp    string
	// colors64 holds the canonical-depth colours indexed by node
	// insertion order; colors is the string rendering, produced lazily
	// on the first WLColors request at canonical depth.
	colors64 []uint64
	colors   map[ElemID]string
}

// New returns an empty property graph.
func New() *Graph {
	return &Graph{
		nodes:  make(map[ElemID]*Node),
		edges:  make(map[ElemID]*Edge),
		outAdj: make(map[ElemID][]ElemID),
		inAdj:  make(map[ElemID][]ElemID),
	}
}

// invalidateCanon drops the memoized canonical refinement after a
// structural mutation.
func (g *Graph) invalidateCanon() {
	g.canon.mu.Lock()
	g.canon.valid = false
	g.canon.fp = ""
	g.canon.colors64 = g.canon.colors64[:0]
	g.canon.colors = nil
	g.canon.mu.Unlock()
}

// AddNode appends a node with a fresh identifier and returns its ID.
func (g *Graph) AddNode(label string, props Properties) ElemID {
	g.nextNode++
	id := ElemID(fmt.Sprintf("n%d", g.nextNode))
	for g.nodes[id] != nil { // skip ids already taken by InsertNode
		g.nextNode++
		id = ElemID(fmt.Sprintf("n%d", g.nextNode))
	}
	g.insertNode(&Node{ID: id, Label: label, Props: cloneProps(props)})
	return id
}

// InsertNode adds a node with a caller-chosen identifier. It returns an
// error if the identifier is already present (as a node or an edge).
func (g *Graph) InsertNode(id ElemID, label string, props Properties) error {
	if g.nodes[id] != nil || g.edges[id] != nil {
		return fmt.Errorf("graph: duplicate element id %q", id)
	}
	g.insertNode(&Node{ID: id, Label: label, Props: cloneProps(props)})
	return nil
}

func (g *Graph) insertNode(n *Node) {
	g.nodes[n.ID] = n
	g.nodeIDs = append(g.nodeIDs, n.ID)
	g.invalidateCanon()
}

// AddEdge appends an edge with a fresh identifier from src to tgt and
// returns its ID. It returns an error if either endpoint is missing.
func (g *Graph) AddEdge(src, tgt ElemID, label string, props Properties) (ElemID, error) {
	if g.nodes[src] == nil {
		return "", fmt.Errorf("graph: edge source %q not present", src)
	}
	if g.nodes[tgt] == nil {
		return "", fmt.Errorf("graph: edge target %q not present", tgt)
	}
	g.nextEdge++
	id := ElemID(fmt.Sprintf("e%d", g.nextEdge))
	for g.edges[id] != nil {
		g.nextEdge++
		id = ElemID(fmt.Sprintf("e%d", g.nextEdge))
	}
	g.insertEdge(&Edge{ID: id, Src: src, Tgt: tgt, Label: label, Props: cloneProps(props)})
	return id, nil
}

// InsertEdge adds an edge with a caller-chosen identifier.
func (g *Graph) InsertEdge(id, src, tgt ElemID, label string, props Properties) error {
	if g.nodes[id] != nil || g.edges[id] != nil {
		return fmt.Errorf("graph: duplicate element id %q", id)
	}
	if g.nodes[src] == nil {
		return fmt.Errorf("graph: edge source %q not present", src)
	}
	if g.nodes[tgt] == nil {
		return fmt.Errorf("graph: edge target %q not present", tgt)
	}
	g.insertEdge(&Edge{ID: id, Src: src, Tgt: tgt, Label: label, Props: cloneProps(props)})
	return nil
}

func (g *Graph) insertEdge(e *Edge) {
	g.edges[e.ID] = e
	g.edgeIDs = append(g.edgeIDs, e.ID)
	g.outAdj[e.Src] = append(g.outAdj[e.Src], e.ID)
	g.inAdj[e.Tgt] = append(g.inAdj[e.Tgt], e.ID)
	g.invalidateCanon()
}

// SetProp sets property key=value on the node or edge with the given id.
// It returns an error if no such element exists.
func (g *Graph) SetProp(id ElemID, key, value string) error {
	if n := g.nodes[id]; n != nil {
		if n.Props == nil {
			n.Props = Properties{}
		}
		n.Props[key] = value
		return nil
	}
	if e := g.edges[id]; e != nil {
		if e.Props == nil {
			e.Props = Properties{}
		}
		e.Props[key] = value
		return nil
	}
	return fmt.Errorf("graph: no element %q", id)
}

// DeleteProp removes a property from an element, if present.
func (g *Graph) DeleteProp(id ElemID, key string) {
	if n := g.nodes[id]; n != nil {
		delete(n.Props, key)
		return
	}
	if e := g.edges[id]; e != nil {
		delete(e.Props, key)
	}
}

// Node returns the node with the given id, or nil.
func (g *Graph) Node(id ElemID) *Node { return g.nodes[id] }

// Edge returns the edge with the given id, or nil.
func (g *Graph) Edge(id ElemID) *Edge { return g.edges[id] }

// Nodes returns the graph's nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodeIDs))
	for _, id := range g.nodeIDs {
		out = append(out, g.nodes[id])
	}
	return out
}

// Edges returns the graph's edges in insertion order.
func (g *Graph) Edges() []*Edge {
	out := make([]*Edge, 0, len(g.edgeIDs))
	for _, id := range g.edgeIDs {
		out = append(out, g.edges[id])
	}
	return out
}

// NumNodes reports the node count.
func (g *Graph) NumNodes() int { return len(g.nodeIDs) }

// NumEdges reports the edge count.
func (g *Graph) NumEdges() int { return len(g.edgeIDs) }

// Size reports nodes+edges, the element count used when ranking trial
// graphs by size in the generalization stage.
func (g *Graph) Size() int { return len(g.nodeIDs) + len(g.edgeIDs) }

// Clone returns a deep copy of the graph preserving identifiers and
// insertion order.
func (g *Graph) Clone() *Graph {
	out := New()
	out.nextNode = g.nextNode
	out.nextEdge = g.nextEdge
	for _, n := range g.Nodes() {
		out.insertNode(&Node{ID: n.ID, Label: n.Label, Props: cloneProps(n.Props)})
	}
	for _, e := range g.Edges() {
		out.insertEdge(&Edge{ID: e.ID, Src: e.Src, Tgt: e.Tgt, Label: e.Label, Props: cloneProps(e.Props)})
	}
	return out
}

// InEdges returns the edges whose target is id, in insertion order.
func (g *Graph) InEdges(id ElemID) []*Edge {
	ids := g.inAdj[id]
	if len(ids) == 0 {
		return nil
	}
	out := make([]*Edge, len(ids))
	for i, eid := range ids {
		out[i] = g.edges[eid]
	}
	return out
}

// OutEdges returns the edges whose source is id, in insertion order.
func (g *Graph) OutEdges(id ElemID) []*Edge {
	ids := g.outAdj[id]
	if len(ids) == 0 {
		return nil
	}
	out := make([]*Edge, len(ids))
	for i, eid := range ids {
		out[i] = g.edges[eid]
	}
	return out
}

// RemoveEdge deletes an edge. It is a no-op for unknown ids.
func (g *Graph) RemoveEdge(id ElemID) {
	e := g.edges[id]
	if e == nil {
		return
	}
	delete(g.edges, id)
	g.edgeIDs = deleteID(g.edgeIDs, id)
	g.outAdj[e.Src] = deleteID(g.outAdj[e.Src], id)
	g.inAdj[e.Tgt] = deleteID(g.inAdj[e.Tgt], id)
	g.invalidateCanon()
}

// RemoveNode deletes a node and all edges incident to it.
func (g *Graph) RemoveNode(id ElemID) {
	if g.nodes[id] == nil {
		return
	}
	incident := make([]ElemID, 0, len(g.outAdj[id])+len(g.inAdj[id]))
	incident = append(incident, g.outAdj[id]...)
	incident = append(incident, g.inAdj[id]...)
	for _, eid := range incident {
		g.RemoveEdge(eid)
	}
	delete(g.outAdj, id)
	delete(g.inAdj, id)
	delete(g.nodes, id)
	g.nodeIDs = deleteID(g.nodeIDs, id)
	g.invalidateCanon()
}

func deleteID(ids []ElemID, id ElemID) []ElemID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

func cloneProps(p Properties) Properties {
	if p == nil {
		return nil
	}
	out := make(Properties, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// PropKeys returns an element's property keys in sorted order.
func PropKeys(p Properties) []string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders a compact human-readable description, stable across runs.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph{%d nodes, %d edges}\n", g.NumNodes(), g.NumEdges())
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "  node %s [%s]%s\n", n.ID, n.Label, propString(n.Props))
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  edge %s: %s -%s-> %s%s\n", e.ID, e.Src, e.Label, e.Tgt, propString(e.Props))
	}
	return b.String()
}

func propString(p Properties) string {
	if len(p) == 0 {
		return ""
	}
	parts := make([]string, 0, len(p))
	for _, k := range PropKeys(p) {
		parts = append(parts, fmt.Sprintf("%s=%q", k, p[k]))
	}
	return " {" + strings.Join(parts, ", ") + "}"
}
