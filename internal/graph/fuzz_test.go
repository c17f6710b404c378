package graph

import (
	"math/rand"
	"testing"
)

// graphFromFuzzBytes deterministically decodes an arbitrary byte string
// into a small labelled graph: byte 0 sizes the node set, following
// bytes pick labels and edge endpoints (indices wrap around the data).
func graphFromFuzzBytes(data []byte) *Graph {
	if len(data) == 0 {
		return nil
	}
	at := func(i int) int { return int(data[i%len(data)]) }
	nodeLabels := []string{"entity", "activity", "agent", "P"}
	edgeLabels := []string{"used", "ran", "E"}
	g := New()
	n := 1 + at(0)%12
	ids := make([]ElemID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(nodeLabels[at(i+1)%len(nodeLabels)], nil)
	}
	m := at(n+1) % (2 * n)
	for e := 0; e < m; e++ {
		src := ids[at(n+2+2*e)%n]
		tgt := ids[at(n+3+2*e)%n]
		if _, err := g.AddEdge(src, tgt, edgeLabels[at(n+4+3*e)%len(edgeLabels)], nil); err != nil {
			panic(err) // endpoints exist by construction
		}
	}
	return g
}

// FuzzShapeFingerprintInvariance checks the fingerprint's contract on
// arbitrary graphs: invariant under identifier renaming and insertion
// reordering, sensitive to label changes, and correctly invalidated by
// structural mutation.
func FuzzShapeFingerprintInvariance(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 3, 6, 0, 1, 1, 2, 2, 3, 0, 3})
	f.Add([]byte{1, 7})
	f.Add([]byte{11, 250, 3, 9, 27, 81, 243, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte("provenance graphs all the way down"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromFuzzBytes(data)
		if g == nil || g.NumNodes() == 0 {
			t.Skip()
		}
		seed := int64(len(data))
		for _, b := range data {
			seed = seed*31 + int64(b)
		}
		h := renameElements(g, rand.New(rand.NewSource(seed)))
		if g.Fingerprint() != h.Fingerprint() {
			t.Fatalf("fingerprint not invariant under renaming:\n%s\n%s", g, h)
		}

		// Sensitivity: one node relabelled to a fresh label changes the
		// label multiset and must change the fingerprint.
		mut := g.Clone()
		node := mut.Nodes()[int(data[0])%mut.NumNodes()]
		node.Label += "_mutant"
		if g.Fingerprint() == mut.Fingerprint() {
			t.Fatalf("fingerprint ignored a label change on %s:\n%s", node.ID, g)
		}

		// Cache invalidation: fingerprinting, then removing a node,
		// must yield a different (recomputed) fingerprint.
		if g.NumNodes() > 1 {
			rm := g.Clone()
			before := rm.Fingerprint()
			rm.RemoveNode(rm.Nodes()[0].ID)
			if after := rm.Fingerprint(); after == before {
				t.Fatalf("fingerprint unchanged after node removal:\n%s", g)
			}
		}
	})
}
