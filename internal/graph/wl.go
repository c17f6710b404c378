package graph

// Integer Weisfeiler–Leman refinement — the engine behind
// (*Graph).Fingerprint and (*Graph).Colors.
//
// The legacy refinement (wl_legacy.go) built a string per node per
// round: format every incident edge as "label<colour", sort the
// strings, concatenate, sha256, hex — a storm of small allocations on
// the hottest path of every classification. This implementation keeps
// colours as uint64 hashes end to end: adjacency is flattened once per
// computation into (edge-label hash, neighbour index) pairs, each
// round sorts a reusable []uint64 multiset per node, and the combined
// fingerprint hashes sorted integer items. All scratch lives in a
// sync.Pool workspace, so refinement after warm-up allocates almost
// nothing beyond the memoized result itself.
//
// Every hash here is deterministic arithmetic (FNV-1a over labels,
// splitmix64-style mixing) — NOT a per-process seeded hash — because
// WL colours order the Normalize output that the regression store
// persists across processes.

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sync"
)

// Direction and element tags keep in/out neighbour contributions and
// node/edge fingerprint items in disjoint hash families.
const (
	wlInTag   = 0x9ae16a3b2f90404f
	wlOutTag  = 0xc3a5c85c97cb3127
	wlNodeTag = 0x2545f4914f6cdd1d
	wlEdgeTag = 0x8a5cd789635d2dff
)

// mix64 is the splitmix64 finalizer: a bijective avalanche over one
// 64-bit word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashLabel is FNV-1a over a label string — process-stable, unlike
// maphash.
func hashLabel(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// wlWorkspace is the pooled scratch of one refinement computation:
// node index, flattened tagged adjacency, two colour slabs, the
// per-node neighbour multiset, and the fingerprint item/byte buffers.
type wlWorkspace struct {
	idx      map[ElemID]int32
	colors   []uint64
	next     []uint64
	adjOff   []int32
	adjVal   []uint64 // mix64(labelHash ^ directionTag) per incident edge
	adjNbr   []int32
	multiset []uint64
	items    []uint64
	bytes    []byte
}

var wlPool = sync.Pool{New: func() any { return &wlWorkspace{idx: map[ElemID]int32{}} }}

func wlGet() *wlWorkspace   { return wlPool.Get().(*wlWorkspace) }
func wlPut(ws *wlWorkspace) { wlPool.Put(ws) }

// grow returns s with length n, reusing capacity.
func grow[T int32 | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// wlRefine runs `rounds` of WL colour refinement and returns the
// colour of every node, indexed by the graph's node insertion order.
// The returned slice aliases the workspace — callers copy out anything
// they keep past wlPut.
func wlRefine(g *Graph, rounds int, ws *wlWorkspace) []uint64 {
	n := len(g.nodeIDs)
	clear(ws.idx)
	for i, id := range g.nodeIDs {
		ws.idx[id] = int32(i)
	}
	// Flatten the adjacency once: node i's incident edges occupy
	// adj[off[i]:off[i+1]], each entry a (tagged label hash, neighbour
	// index) pair, so rounds never touch maps or strings.
	ws.adjOff = grow(ws.adjOff, n+1)
	ws.adjOff[0] = 0
	for i, id := range g.nodeIDs {
		ws.adjOff[i+1] = ws.adjOff[i] + int32(len(g.inAdj[id])+len(g.outAdj[id]))
	}
	total := int(ws.adjOff[n])
	ws.adjVal = grow(ws.adjVal, total)
	ws.adjNbr = grow(ws.adjNbr, total)
	for i, id := range g.nodeIDs {
		k := ws.adjOff[i]
		for _, eid := range g.inAdj[id] {
			e := g.edges[eid]
			ws.adjVal[k] = mix64(hashLabel(e.Label) ^ wlInTag)
			ws.adjNbr[k] = ws.idx[e.Src]
			k++
		}
		for _, eid := range g.outAdj[id] {
			e := g.edges[eid]
			ws.adjVal[k] = mix64(hashLabel(e.Label) ^ wlOutTag)
			ws.adjNbr[k] = ws.idx[e.Tgt]
			k++
		}
	}
	ws.colors = grow(ws.colors, n)
	ws.next = grow(ws.next, n)
	colors, next := ws.colors, ws.next
	for i, id := range g.nodeIDs {
		colors[i] = mix64(hashLabel(g.nodes[id].Label))
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			ms := ws.multiset[:0]
			for k := ws.adjOff[i]; k < ws.adjOff[i+1]; k++ {
				ms = append(ms, mix64(ws.adjVal[k]^colors[ws.adjNbr[k]]))
			}
			slices.Sort(ms)
			h := mix64(colors[i] + 0x9e3779b97f4a7c15)
			for _, c := range ms {
				h = mix64(h ^ c)
			}
			next[i] = h
			ws.multiset = ms
		}
		colors, next = next, colors
	}
	ws.colors, ws.next = colors, next
	return colors
}

// wlFingerprint hashes the refined colours into the shape fingerprint:
// one item per node colour, one per (src colour, edge label, tgt
// colour) triple, sorted and fed through sha256. The first 8 bytes in
// hex form the fingerprint, the same shape the legacy implementation
// produced.
func wlFingerprint(g *Graph, colors []uint64, ws *wlWorkspace) string {
	items := ws.items[:0]
	for i := range g.nodeIDs {
		items = append(items, mix64(colors[i]^wlNodeTag))
	}
	for _, eid := range g.edgeIDs {
		e := g.edges[eid]
		h := mix64(wlEdgeTag ^ colors[ws.idx[e.Src]])
		h = mix64(h ^ hashLabel(e.Label))
		h = mix64(h ^ colors[ws.idx[e.Tgt]])
		items = append(items, h)
	}
	slices.Sort(items)
	buf := ws.bytes[:0]
	for _, it := range items {
		buf = append(buf, byte(it), byte(it>>8), byte(it>>16), byte(it>>24),
			byte(it>>32), byte(it>>40), byte(it>>48), byte(it>>56))
	}
	ws.items, ws.bytes = items, buf
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}
