package match

import (
	"fmt"
	"strings"
	"testing"

	"provmark/internal/asp"
	"provmark/internal/graph"
)

// These tests pin the correspondence between the asp.Problem encodings
// and the paper's two ASP programs, quoted below, on instances small
// enough to verify by hand:
//
//   - a selection group per element of G1 with candidates in G2 realizes
//     the cardinality-1 choice rules;
//   - label mismatches are pruned during grounding, realizing the
//     label-preservation constraints;
//   - atom targets realize the injectivity constraints;
//   - implications realize the endpoint-preservation constraints;
//   - atom weights realize cost/3 with the #minimize directive.

// Listing3GraphSimilarity is the paper's graph-similarity program: an
// exact isomorphism on structure and labels (Section 3.4).
const Listing3GraphSimilarity = `{h(X,Y) : n2(Y,_)} = 1 :- n1(X,_).
{h(X,Y) : n1(X,_)} = 1 :- n2(Y,_).
{h(X,Y) : e2(Y,_,_,_)} = 1 :- e1(X,_,_,_).
{h(X,Y) : e1(X,_,_,_)} = 1 :- e2(Y,_,_,_).
:- X <> Y, h(X,Z), h(Y,Z).
:- X <> Y, h(Z,Y), h(Z,X).
:- n1(X,L), h(X,Y), not n2(Y,L).
:- n2(Y,L), h(X,Y), not n1(X,L).
:- e1(E1,_,_,L), h(E1,E2), not e2(E2,_,_,L).
:- e2(E2,_,_,L), h(E1,E2), not e1(E1,_,_,L).
:- e1(E1,X,_,_), h(E1,E2), e2(E2,Y,_,_), not h(X,Y).
:- e1(E1,_,X,_), h(E1,E2), e2(E2,_,Y,_), not h(X,Y).`

// Listing4SubgraphIsomorphism is the paper's approximate subgraph
// isomorphism program with the property-mismatch cost minimization
// (Section 3.5).
const Listing4SubgraphIsomorphism = `{h(X,Y) : n2(Y,_)} = 1 :- n1(X,_).
{h(X,Y) : e2(Y,_,_,_)} = 1 :- e1(X,_,_,_).
:- X <> Y, h(X,Z), h(Y,Z).
:- X <> Y, h(Z,Y), h(Z,X).
:- n1(X,L), h(X,Y), not n2(Y,L).
:- e1(E1,_,_,L), h(E1,E2), not e2(E2,_,_,L).
:- e1(E1,X,_,_), h(E1,E2), e2(E2,Y,_,_), not h(X,Y).
:- e1(E1,_,X,_), h(E1,E2), e2(E2,_,Y,_), not h(X,Y).
cost(X,K,0) :- p1(X,K,V), h(X,Y), p2(Y,K,V).
cost(X,K,1) :- p1(X,K,V), h(X,Y), p2(Y,K,W), V <> W.
cost(X,K,1) :- p1(X,K,V), h(X,Y), not p2(Y,K,_).
#minimize { PC,X,K : cost(X,K,PC) }.`

// TestListing4CostSemantics checks the three cost/3 rules: matched
// property costs 0, differing value costs 1, missing key costs 1;
// properties present only on the foreground element are free.
func TestListing4CostSemantics(t *testing.T) {
	bg := graph.New()
	bg.AddNode("X", graph.Properties{"same": "v", "diff": "a", "missing": "m"})
	fg := graph.New()
	fg.AddNode("X", graph.Properties{"same": "v", "diff": "b", "extra": "e"})
	_, cost, err := SubgraphEmbed(bg, fg)
	if err != nil {
		t.Fatal(err)
	}
	// diff (1) + missing (1); same costs 0 and fg-only extra is free.
	if cost != 2 {
		t.Errorf("cost = %d, want 2", cost)
	}
}

// TestListing3Bijectivity: similarity must be a bijection, so graphs
// with equal label multisets but unequal sizes per colour class fail.
func TestListing3Bijectivity(t *testing.T) {
	// g: two isolated A nodes plus A->A edge pair... simplest: sizes
	// already filtered; exercise the injectivity constraints instead.
	g := graph.New()
	a1 := g.AddNode("A", nil)
	a2 := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	if _, err := g.AddEdge(a1, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(a2, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	h := g.Clone()
	m, ok := Similar(g, h)
	if !ok {
		t.Fatal("clone not similar")
	}
	// Injectivity: the two A nodes must map to distinct targets.
	if m[a1] == m[a2] {
		t.Error("injectivity violated")
	}
}

// TestListing3EndpointPreservation: an edge may only map to an edge
// whose endpoints are the images of its own endpoints.
func TestListing3EndpointPreservation(t *testing.T) {
	g := graph.New()
	ga := g.AddNode("A", nil)
	gb := g.AddNode("B", nil)
	ge, err := g.AddEdge(ga, gb, "E", nil)
	if err != nil {
		t.Fatal(err)
	}
	h := g.Clone()
	m, ok := Similar(g, h)
	if !ok {
		t.Fatal("clone not similar")
	}
	he := h.Edge(m[ge])
	if he.Src != m[ga] || he.Tgt != m[gb] {
		t.Error("endpoint preservation violated")
	}
}

// TestGeneralizationMinimizesTotalDiffs: the generalization objective
// counts disagreements in both directions (symmetric difference).
func TestGeneralizationMinimizesTotalDiffs(t *testing.T) {
	if w := propDiffWeight(
		graph.Properties{"a": "1", "b": "2"},
		graph.Properties{"a": "1", "c": "3"},
	); w != 2 { // b missing on right, c missing on left
		t.Errorf("weight = %d, want 2", w)
	}
	if w := propDiffWeight(
		graph.Properties{"a": "1"},
		graph.Properties{"a": "2"},
	); w != 1 {
		t.Errorf("weight = %d, want 1", w)
	}
	if w := propDiffWeight(nil, nil); w != 0 {
		t.Errorf("weight = %d, want 0", w)
	}
}

// TestEncodingRendersAsASP: the ground problem renders in clingo-like
// syntax mirroring the listings' h/2 vocabulary.
func TestEncodingRendersAsASP(t *testing.T) {
	bg := graph.New()
	a := bg.AddNode("A", graph.Properties{"k": "v"})
	b := bg.AddNode("B", nil)
	if _, err := bg.AddEdge(a, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	fg := bg.Clone()
	enc, err := encodeSubgraph(bg, fg)
	if err != nil {
		t.Fatal(err)
	}
	out := enc.render()
	for _, want := range []string{"{ h(n1,n1) } = 1", ":- h(e1,e1), not h(n1,n1)."} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// render prints enc's program naming each atom h(X,Y) after the g1 and
// g2 elements it pairs: one choice rule per group, the endpoint
// implications and the #minimize weights.
func (enc *encoding) render() string {
	p := enc.problem
	name := func(a asp.AtomID) string {
		x := elemID(enc.nodes1, enc.edges1, int(p.Atom(a).Group))
		y := elemID(enc.nodes2, enc.edges2, int(p.Atom(a).Target))
		return fmt.Sprintf("h(%s,%s)", x, y)
	}
	var b strings.Builder
	var costs []string
	for a := asp.AtomID(0); int(a) < p.NumAtoms(); {
		var names []string
		for g := p.Atom(a).Group; int(a) < p.NumAtoms() && p.Atom(a).Group == g; a++ {
			names = append(names, name(a))
			if w := p.Atom(a).Weight; w != 0 {
				costs = append(costs, fmt.Sprintf("%d : %s", w, name(a)))
			}
		}
		fmt.Fprintf(&b, "{ %s } = 1.\n", strings.Join(names, "; "))
	}
	for a := asp.AtomID(0); int(a) < p.NumAtoms(); a++ {
		for _, imp := range p.Implied(a) {
			fmt.Fprintf(&b, ":- %s, not %s.\n", name(a), name(imp))
		}
	}
	if len(costs) > 0 {
		fmt.Fprintf(&b, "#minimize { %s }.\n", strings.Join(costs, "; "))
	}
	return b.String()
}
