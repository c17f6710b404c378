package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
)

// wlColorsLegacy is the original string-based WL refinement, frozen
// when wl.go replaced it on the production path. Each round renders
// every incident edge as "label<colour"/"label>colour", sorts the
// strings, concatenates and sha256-hashes per node — allocation-heavy,
// but simple enough to audit by eye. It is kept as the reference that
// the partition-equivalence test, the allocation test and
// BenchmarkWLColors compare the integer refinement against.
func wlColorsLegacy(g *Graph, rounds int) map[ElemID]string {
	colors := make(map[ElemID]string, g.NumNodes())
	for _, n := range g.Nodes() {
		colors[n.ID] = n.Label
	}
	for r := 0; r < rounds; r++ {
		next := make(map[ElemID]string, len(colors))
		for _, n := range g.Nodes() {
			in := make([]string, 0, len(g.inAdj[n.ID]))
			for _, eid := range g.inAdj[n.ID] {
				e := g.edges[eid]
				in = append(in, e.Label+"<"+colors[e.Src])
			}
			out := make([]string, 0, len(g.outAdj[n.ID]))
			for _, eid := range g.outAdj[n.ID] {
				e := g.edges[eid]
				out = append(out, e.Label+">"+colors[e.Tgt])
			}
			sort.Strings(in)
			sort.Strings(out)
			raw := colors[n.ID] + "#" + strings.Join(in, ",") + "#" + strings.Join(out, ",")
			sum := sha256.Sum256([]byte(raw))
			next[n.ID] = hex.EncodeToString(sum[:6])
		}
		colors = next
	}
	return colors
}
