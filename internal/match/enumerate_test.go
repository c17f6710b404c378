package match

import (
	"testing"

	"provmark/internal/asp"
	"provmark/internal/graph"
)

// EnumerateIsomorphisms visits structure/label isomorphisms from g1 to
// g2 up to limit (limit <= 0 means all) and returns how many were
// found. It is the building block the paper's future-work discussion
// of nondeterministic activity needs: grouping the distinct graph
// structures a concurrent program can produce requires knowing all the
// ways two trial graphs align, not just one.
func EnumerateIsomorphisms(g1, g2 *graph.Graph, limit int, fn func(Mapping) bool) int {
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		return 0
	}
	if !graph.SameLabelCounts(g1, g2) {
		return 0
	}
	enc, err := encodeIso(g1, g2, nil)
	if err != nil {
		return 0
	}
	return enc.problem.SolveAll(limit, func(sol *asp.Solution) bool {
		return fn(enc.decode(sol))
	})
}

// CountAutomorphisms counts the label-preserving automorphisms of a
// graph, up to limit. Symmetric provenance structures (e.g. n identical
// files created by one process) have n! automorphisms, which is exactly
// what makes the matching problems hard — the count quantifies instance
// symmetry for the scalability analysis.
func CountAutomorphisms(g *graph.Graph, limit int) int {
	return EnumerateIsomorphisms(g, g, limit, func(Mapping) bool { return true })
}

// star builds one hub with n identical leaves.
func star(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New()
	hub := g.AddNode("Hub", nil)
	for i := 0; i < n; i++ {
		leaf := g.AddNode("Leaf", nil)
		if _, err := g.AddEdge(hub, leaf, "E", nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestCountAutomorphismsStar(t *testing.T) {
	// n identical leaves: n! automorphisms.
	for n, want := range map[int]int{1: 1, 2: 2, 3: 6, 4: 24} {
		if got := CountAutomorphisms(star(t, n), 0); got != want {
			t.Errorf("star(%d): %d automorphisms, want %d", n, got, want)
		}
	}
}

func TestCountAutomorphismsCycle(t *testing.T) {
	// Directed cycle of n identical nodes: n rotations.
	g := graph.New()
	var ids []graph.ElemID
	const n = 5
	for i := 0; i < n; i++ {
		ids = append(ids, g.AddNode("N", nil))
	}
	for i := 0; i < n; i++ {
		if _, err := g.AddEdge(ids[i], ids[(i+1)%n], "E", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := CountAutomorphisms(g, 0); got != n {
		t.Errorf("cycle(%d): %d automorphisms, want %d", n, got, n)
	}
}

func TestCountAutomorphismsRigidPath(t *testing.T) {
	g := chain(t, "A", "B", "C")
	if got := CountAutomorphisms(g, 0); got != 1 {
		t.Errorf("path: %d automorphisms, want 1", got)
	}
}

func TestEnumerateRespectsLimit(t *testing.T) {
	g := star(t, 4) // 24 automorphisms
	if got := CountAutomorphisms(g, 5); got != 5 {
		t.Errorf("limited count = %d, want 5", got)
	}
	calls := 0
	EnumerateIsomorphisms(g, g, 0, func(Mapping) bool {
		calls++
		return calls < 3 // early stop via callback
	})
	if calls != 3 {
		t.Errorf("callback stop: %d calls, want 3", calls)
	}
}

func TestEnumerateValidatesEveryMapping(t *testing.T) {
	g := star(t, 3)
	h := star(t, 3)
	n := EnumerateIsomorphisms(g, h, 0, func(m Mapping) bool {
		if !VerifyMapping(g, h, m) {
			t.Error("invalid mapping enumerated")
		}
		return true
	})
	if n != 6 {
		t.Errorf("enumerated %d isomorphisms, want 6", n)
	}
}

func TestEnumerateDissimilar(t *testing.T) {
	if n := EnumerateIsomorphisms(star(t, 2), star(t, 3), 0, func(Mapping) bool { return true }); n != 0 {
		t.Errorf("dissimilar graphs enumerated %d isomorphisms", n)
	}
}
