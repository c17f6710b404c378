package graph

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// randomGraph builds a pseudo-random labelled graph.
func randomGraph(rng *rand.Rand, nodes, edges int) *Graph {
	g := New()
	labels := []string{"Process", "Artifact", "entity", "activity"}
	ids := make([]ElemID, 0, nodes)
	for i := 0; i < nodes; i++ {
		ids = append(ids, g.AddNode(labels[rng.Intn(len(labels))], Properties{
			"idx": strconv.Itoa(i),
		}))
	}
	edgeLabels := []string{"used", "wasGeneratedBy", "rel"}
	for i := 0; i < edges; i++ {
		src := ids[rng.Intn(len(ids))]
		tgt := ids[rng.Intn(len(ids))]
		if _, err := g.AddEdge(src, tgt, edgeLabels[rng.Intn(len(edgeLabels))], nil); err != nil {
			panic(err)
		}
	}
	return g
}

// renameElements produces an isomorphic copy with fresh identifiers,
// inserted in a permuted order.
func renameElements(g *Graph, rng *rand.Rand) *Graph {
	out := New()
	nodes := g.Nodes()
	perm := rng.Perm(len(nodes))
	rename := make(map[ElemID]ElemID, len(nodes))
	for i, pi := range perm {
		id := ElemID("m" + strconv.Itoa(i+1))
		rename[nodes[pi].ID] = id
		if err := out.InsertNode(id, nodes[pi].Label, nodes[pi].Props); err != nil {
			panic(err)
		}
	}
	edges := g.Edges()
	eperm := rng.Perm(len(edges))
	for i, pi := range eperm {
		e := edges[pi]
		id := ElemID("f" + strconv.Itoa(i+1))
		if err := out.InsertEdge(id, rename[e.Src], rename[e.Tgt], e.Label, e.Props); err != nil {
			panic(err)
		}
	}
	return out
}

// TestShapeFingerprintInvariantUnderRenaming is the key property: the
// fingerprint must not depend on identifiers or insertion order.
func TestShapeFingerprintInvariantUnderRenaming(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(8), rng.Intn(12))
		h := renameElements(g, rng)
		return g.Fingerprint() == h.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestShapeFingerprintSensitiveToLabels(t *testing.T) {
	g := New()
	a := g.AddNode("X", nil)
	b := g.AddNode("Y", nil)
	if _, err := g.AddEdge(a, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	h := g.Clone()
	h.Node(a).Label = "Z"
	if g.Fingerprint() == h.Fingerprint() {
		t.Error("fingerprint ignored a node label change")
	}
}

func TestShapeFingerprintSensitiveToEdgeDirection(t *testing.T) {
	g := New()
	ga := g.AddNode("X", nil)
	gb := g.AddNode("Y", nil)
	if _, err := g.AddEdge(ga, gb, "E", nil); err != nil {
		t.Fatal(err)
	}
	h := New()
	ha := h.AddNode("X", nil)
	hb := h.AddNode("Y", nil)
	if _, err := h.AddEdge(hb, ha, "E", nil); err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() == h.Fingerprint() {
		t.Error("fingerprint ignored edge direction")
	}
}

func TestSameLabelCounts(t *testing.T) {
	g := New()
	g.AddNode("X", nil)
	g.AddNode("X", nil)
	h := New()
	h.AddNode("X", nil)
	if SameLabelCounts(g, h) {
		t.Error("different multiplicities reported equal")
	}
	h.AddNode("X", nil)
	if !SameLabelCounts(g, h) {
		t.Error("equal multisets reported different")
	}
	h.AddNode("Y", nil)
	if SameLabelCounts(g, h) {
		t.Error("extra label reported equal")
	}
}

func TestEqualDetectsPropDifferences(t *testing.T) {
	g := New()
	a := g.AddNode("X", Properties{"k": "v"})
	h := g.Clone()
	if !Equal(g, h) {
		t.Fatal("clone not equal")
	}
	if err := h.SetProp(a, "k", "w"); err != nil {
		t.Fatal(err)
	}
	if Equal(g, h) {
		t.Error("property change not detected")
	}
}

func TestSummarize(t *testing.T) {
	g := New()
	a := g.AddNode("X", Properties{"k": "v", "j": "w"})
	b := g.AddNode("Y", nil)
	if _, err := g.AddEdge(a, b, "E", Properties{"p": "q"}); err != nil {
		t.Fatal(err)
	}
	s := Summarize(g)
	if s.Nodes != 2 || s.Edges != 1 || s.Props != 3 {
		t.Errorf("stats wrong: %+v", s)
	}
	if s.String() != "2n/1e/3p" {
		t.Errorf("stats rendering: %s", s)
	}
}

func TestWLColorsDistinguishNeighbourhoods(t *testing.T) {
	// a -> b -> c: with identical labels, a (source only), b (middle),
	// c (sink only) must get distinct refined colours.
	g := New()
	a := g.AddNode("N", nil)
	b := g.AddNode("N", nil)
	c := g.AddNode("N", nil)
	if _, err := g.AddEdge(a, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(b, c, "E", nil); err != nil {
		t.Fatal(err)
	}
	colors := g.Colors() // a, b, c in insertion order
	if colors[0] == colors[1] || colors[1] == colors[2] || colors[0] == colors[2] {
		t.Errorf("WL colours failed to separate path positions: %v", colors)
	}
}
