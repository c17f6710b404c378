package graph

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestWLPartitionEquivalence: the integer refinement must induce
// exactly the colour partition the frozen string refinement induces —
// two nodes share an interned colour iff they share a legacy colour.
// This is the property the matching engines rely on (colour classes
// prune candidate pairs), so it pins the rewrite to the reference
// implementation without fixing the colour values themselves.
func TestWLPartitionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 30; trial++ {
		nodes := 2 + rng.Intn(40)
		g := randomGraph(rng, nodes, rng.Intn(3*nodes))
		for rounds := 0; rounds <= 4; rounds++ {
			legacy := wlColorsLegacy(g, rounds)
			interned := WLColors(g, rounds)
			if len(legacy) != len(interned) {
				t.Fatalf("trial %d rounds %d: %d legacy colours vs %d interned", trial, rounds, len(legacy), len(interned))
			}
			// Equal partition: the (legacy, interned) pairing must be a
			// bijection between colour classes.
			l2i := map[string]string{}
			i2l := map[string]string{}
			for id, lc := range legacy {
				ic := interned[id]
				if prev, ok := l2i[lc]; ok && prev != ic {
					t.Fatalf("trial %d rounds %d: legacy colour %s split across interned colours %s and %s", trial, rounds, lc, prev, ic)
				}
				if prev, ok := i2l[ic]; ok && prev != lc {
					t.Fatalf("trial %d rounds %d: interned colour %s merges legacy colours %s and %s", trial, rounds, ic, prev, lc)
				}
				l2i[lc] = ic
				i2l[ic] = lc
			}
		}
	}
}

// TestWLRefineAllocsUnderLegacy is the interned refinement's allocation
// claim: on the seeded corpus of the perf snapshot's wl-refine workload
// (100 provenance-shaped graphs of 256 nodes and 512 edges), cold
// fingerprints through the pooled integer engine must allocate at least
// two orders of magnitude less than the frozen string refinement does
// over the same graphs.
func TestWLRefineAllocsUnderLegacy(t *testing.T) {
	mallocs := func(work func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		work()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	corpus := wlAllocCorpus(100, 256, 512, 9)
	var sink int
	legacy := mallocs(func() {
		for _, g := range corpus {
			sink += len(wlColorsLegacy(g, CanonRounds))
		}
	})
	interned := mallocs(func() {
		for _, g := range corpus {
			sink += len(ShapeFingerprint(g))
		}
	})
	if sink == 0 {
		t.Fatal("empty refinement")
	}
	t.Logf("wl-refine allocs: interned %d, legacy %d", interned, legacy)
	if interned*100 > legacy {
		t.Errorf("wl-refine allocs: interned %d vs legacy %d — drop below 100x", interned, legacy)
	}
}

// wlPerfCorpusDigest is the sha256 of the String renderings of
// wlAllocCorpus(100, 256, 512, 9). internal/bench's
// TestWLPerfCorpusDigest pins its own wl-refine corpus to the same
// value, so the two generators cannot drift apart unnoticed.
const wlPerfCorpusDigest = "ff050b7328c89e61469424ab60e26091f7f5ccc778d0da75f5b0d1539215178d"

// TestWLAllocCorpusIsPerfCorpus: the allocation test measures the
// graphs the perf snapshot's wl-refine workload fingerprints.
func TestWLAllocCorpusIsPerfCorpus(t *testing.T) {
	h := sha256.New()
	for _, g := range wlAllocCorpus(100, 256, 512, 9) {
		fmt.Fprint(h, g)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wlPerfCorpusDigest {
		t.Errorf("wlAllocCorpus digest = %s, want %s (the perf corpus)", got, wlPerfCorpusDigest)
	}
}

// wlAllocCorpus builds `count` seeded random provenance-shaped graphs —
// the corpus internal/bench's wl-refine perf workload fingerprints.
func wlAllocCorpus(count, nodes, edges int, seed int64) []*Graph {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"Process", "File", "Socket", "Pipe", "User", "Registry"}
	edgeLabels := []string{"Used", "WasGeneratedBy", "WasInformedBy", "WasAssociatedWith"}
	out := make([]*Graph, 0, count)
	for c := 0; c < count; c++ {
		g := New()
		ids := make([]ElemID, 0, nodes)
		for n := 0; n < nodes; n++ {
			ids = append(ids, g.AddNode(labels[rng.Intn(len(labels))], nil))
		}
		for e := 0; e < edges; e++ {
			src := ids[rng.Intn(len(ids))]
			tgt := ids[rng.Intn(len(ids))]
			if _, err := g.AddEdge(src, tgt, edgeLabels[rng.Intn(len(edgeLabels))], nil); err != nil {
				panic(err) // cannot happen: both endpoints exist
			}
		}
		out = append(out, g)
	}
	return out
}

// TestWLColorsProcessStable: colours are pure arithmetic over labels
// and structure, so rebuilding the same graph must reproduce them
// exactly — the regression store sorts Normalize output by these
// colours across process boundaries.
func TestWLColorsProcessStable(t *testing.T) {
	build := func() *Graph {
		rng := rand.New(rand.NewSource(7))
		return randomGraph(rng, 20, 35)
	}
	a, b := WLColors(build(), CanonRounds), WLColors(build(), CanonRounds)
	if len(a) != len(b) {
		t.Fatalf("colour counts differ: %d vs %d", len(a), len(b))
	}
	for id, c := range a {
		if b[id] != c {
			t.Errorf("colour of %s differs across identical builds: %s vs %s", id, c, b[id])
		}
	}
}

// TestMemoizedFingerprintAllocFree: after the first computation,
// serving the fingerprint and the canonical colours from the cache
// must not allocate — the pipeline fingerprints every trial graph many
// times and the cache hit is its hottest path.
func TestMemoizedFingerprintAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 64, 128)
	want := ShapeFingerprint(g)
	if allocs := testing.AllocsPerRun(100, func() {
		if got := g.Fingerprint(); got != want {
			t.Fatalf("fingerprint changed: %s vs %s", got, want)
		}
	}); allocs != 0 {
		t.Errorf("memoized Fingerprint allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWLRefineWarmAllocFree: a full refinement with a warm pooled
// workspace performs zero heap allocations, so even cache-missing
// fingerprints stay off the allocator's hot path.
func TestWLRefineWarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 64, 128)
	ws := wlGet()
	wlRefine(g, CanonRounds, ws) // warm the workspace for this size
	if allocs := testing.AllocsPerRun(100, func() {
		wlRefine(g, CanonRounds, ws)
	}); allocs != 0 {
		t.Errorf("warm wlRefine allocates %.1f objects/op, want 0", allocs)
	}
	wlPut(ws)
}

// TestFingerprintMatchesLegacyPartitionOnClasses: graphs the legacy
// refinement separates must stay separated, and isomorphic renamings
// must stay fused — spot-checked over a small corpus of structural
// variants.
func TestFingerprintMatchesLegacyPartitionOnClasses(t *testing.T) {
	mk := func(mutate func(g *Graph)) *Graph {
		g := New()
		a := g.AddNode("P", nil)
		b := g.AddNode("F", nil)
		c := g.AddNode("S", nil)
		if _, err := g.AddEdge(a, b, "Used", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddEdge(b, c, "WasGeneratedBy", nil); err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(g)
		}
		return g
	}
	base := mk(nil)
	same := mk(nil)
	if ShapeFingerprint(base) != ShapeFingerprint(same) {
		t.Error("identical graphs fingerprint differently")
	}
	variants := []func(*Graph){
		func(g *Graph) { g.AddNode("P", nil) },
		func(g *Graph) { g.Node("n2").Label = "X"; g.invalidateCanon() },
		func(g *Graph) {
			if _, err := g.AddEdge("n3", "n1", "Used", nil); err != nil {
				t.Fatal(err)
			}
		},
	}
	for i, mutate := range variants {
		v := mk(mutate)
		if ShapeFingerprint(base) == ShapeFingerprint(v) {
			t.Errorf("variant %d fingerprints equal to base %s", i, fmt.Sprint(ShapeFingerprint(base)))
		}
	}
}
