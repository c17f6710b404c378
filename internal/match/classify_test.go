package match_test

// The similarity oracles' differential harness: a randomized corpus of
// seeded permutations and label/edge mutations, asserting that every
// decision path — the production match.Similar, the pure-ASP oracle
// match.SimilarASP, the VF2-style backtracker match.SimilarDirect, and
// fingerprint bucketing through provmark's classifier — reaches the
// same verdict on every pair. Plus the classifier's solver-invocation
// acceptance test, whose seed linear scan confirms through SimilarASP:
// the engine spends at least 3x fewer ASP solver invocations than the
// seed scan on a 32-trial corpus. Both run here, beside the oracles,
// because the oracles live in this package's test files. The corpus
// helpers are a deliberate copy of internal/provmark's classifier-test
// helpers: external test packages cannot share test code, and no test
// compares the corpora the two copies build.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"provmark/internal/asp"
	"provmark/internal/graph"
	"provmark/internal/match"
	"provmark/internal/provmark"
)

var (
	corpusNodeLabels = []string{"process", "file", "socket"}
	corpusEdgeLabels = []string{"read", "write", "fork"}
)

// randomBase builds a connected pseudo-random graph: a labelled chain
// plus extra random edges.
func randomBase(t *testing.T, rng *rand.Rand) *graph.Graph {
	t.Helper()
	g := graph.New()
	n := 3 + rng.Intn(6)
	ids := make([]graph.ElemID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, g.AddNode(corpusNodeLabels[rng.Intn(len(corpusNodeLabels))],
			graph.Properties{"pos": strconv.Itoa(i)}))
	}
	for i := 1; i < n; i++ {
		mustEdge(t, g, ids[i-1], ids[i], corpusEdgeLabels[rng.Intn(len(corpusEdgeLabels))])
	}
	for extra := rng.Intn(n); extra > 0; extra-- {
		mustEdge(t, g, ids[rng.Intn(n)], ids[rng.Intn(n)], corpusEdgeLabels[rng.Intn(len(corpusEdgeLabels))])
	}
	return g
}

func mustEdge(t *testing.T, g *graph.Graph, src, tgt graph.ElemID, label string) {
	t.Helper()
	if _, err := g.AddEdge(src, tgt, label, nil); err != nil {
		t.Fatal(err)
	}
}

// permutedCopy is an isomorphic copy: fresh identifiers, permuted
// insertion order, properties preserved.
func permutedCopy(t testing.TB, g *graph.Graph, rng *rand.Rand, prefix string) *graph.Graph {
	t.Helper()
	out := graph.New()
	nodes := g.Nodes()
	rename := make(map[graph.ElemID]graph.ElemID, len(nodes))
	for i, pi := range rng.Perm(len(nodes)) {
		n := nodes[pi]
		id := graph.ElemID(fmt.Sprintf("%s_n%d", prefix, i))
		rename[n.ID] = id
		if err := out.InsertNode(id, n.Label, n.Props); err != nil {
			t.Fatal(err)
		}
	}
	edges := g.Edges()
	for i, pi := range rng.Perm(len(edges)) {
		e := edges[pi]
		id := graph.ElemID(fmt.Sprintf("%s_e%d", prefix, i))
		if err := out.InsertEdge(id, rename[e.Src], rename[e.Tgt], e.Label, e.Props); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// labelMutatedCopy relabels one node to a label outside the corpus
// alphabet. The label multiset changes, so the pair can never be
// similar — every engine must say no.
func labelMutatedCopy(t *testing.T, g *graph.Graph, rng *rand.Rand) *graph.Graph {
	t.Helper()
	out := graph.New()
	nodes := g.Nodes()
	k := rng.Intn(len(nodes))
	for i, n := range nodes {
		label := n.Label
		if i == k {
			label = "mutant"
		}
		if err := out.InsertNode(n.ID, label, n.Props); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.Edges() {
		if err := out.InsertEdge(e.ID, e.Src, e.Tgt, e.Label, e.Props); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// rewiredCopy re-targets one edge at random. The result may or may not
// stay isomorphic (symmetries can absorb the rewire), so callers assert
// only that all engines agree on the verdict.
func rewiredCopy(t *testing.T, g *graph.Graph, rng *rand.Rand) *graph.Graph {
	t.Helper()
	out := graph.New()
	nodes := g.Nodes()
	for _, n := range nodes {
		if err := out.InsertNode(n.ID, n.Label, n.Props); err != nil {
			t.Fatal(err)
		}
	}
	edges := g.Edges()
	k := rng.Intn(len(edges))
	for i, e := range edges {
		tgt := e.Tgt
		if i == k {
			tgt = nodes[rng.Intn(len(nodes))].ID
		}
		if err := out.InsertEdge(e.ID, e.Src, tgt, e.Label, e.Props); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// engineVerdicts runs one pair through all four decision paths.
func engineVerdicts(t *testing.T, a, b *graph.Graph) map[string]bool {
	t.Helper()
	verdicts := make(map[string]bool, 4)

	m, ok := match.Similar(a, b)
	if ok && !match.VerifyMapping(a, b, m) {
		t.Fatalf("Similar returned an invalid witness mapping")
	}
	verdicts["similar"] = ok

	m, ok = match.SimilarASP(a, b)
	if ok && !match.VerifyMapping(a, b, m) {
		t.Fatalf("SimilarASP returned an invalid witness mapping")
	}
	verdicts["asp"] = ok

	m, ok = match.SimilarDirect(a, b)
	if ok && !match.VerifyMapping(a, b, m) {
		t.Fatalf("SimilarDirect returned an invalid witness mapping")
	}
	verdicts["direct"] = ok

	classes := provmark.NewClassifier().Classes([]*graph.Graph{a, b})
	verdicts["bucketing"] = len(classes) == 1

	return verdicts
}

func assertVerdicts(t *testing.T, a, b *graph.Graph, want bool, kind string) {
	t.Helper()
	for engine, got := range engineVerdicts(t, a, b) {
		if got != want {
			t.Errorf("%s pair: engine %s said %v, want %v\nG1:\n%s\nG2:\n%s",
				kind, engine, got, want, a, b)
		}
	}
}

func assertVerdictsAgree(t *testing.T, a, b *graph.Graph, kind string) {
	t.Helper()
	verdicts := engineVerdicts(t, a, b)
	ref, refEngine := verdicts["asp"], "asp"
	for engine, got := range verdicts {
		if got != ref {
			t.Errorf("%s pair: engine %s said %v but %s said %v\nG1:\n%s\nG2:\n%s",
				kind, engine, got, refEngine, ref, a, b)
		}
	}
}

// TestDifferentialSimilarityEngines is the randomized differential
// harness: 70 seeded base graphs x 3 pair kinds = 210 pairs, each
// decided by all four paths.
func TestDifferentialSimilarityEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pairs := 0
	for i := 0; i < 70; i++ {
		base := randomBase(t, rng)
		perm := permutedCopy(t, base, rng, fmt.Sprintf("perm%d", i))
		assertVerdicts(t, base, perm, true, "permuted")
		pairs++

		mut := labelMutatedCopy(t, base, rng)
		assertVerdicts(t, base, mut, false, "label-mutated")
		pairs++

		rew := rewiredCopy(t, base, rng)
		assertVerdictsAgree(t, base, rew, "rewired")
		pairs++
	}
	if pairs < 200 {
		t.Fatalf("differential corpus covered %d pairs, want >= 200", pairs)
	}
}

// classCorpus builds an asymmetric 32-trial corpus in exactly 4
// similarity classes: 4 distinct chain shapes x 8 permuted copies, with
// volatile property noise, shuffled.
func classCorpus(t testing.TB, seed int64) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var trials []*graph.Graph
	for s := 0; s < 4; s++ {
		base := graph.New()
		var prev graph.ElemID
		for i := 0; i <= s+2; i++ {
			id := base.AddNode(fmt.Sprintf("s%dp%d", s, i), nil)
			if i > 0 {
				if _, err := base.AddEdge(prev, id, "next", nil); err != nil {
					t.Fatal(err)
				}
			}
			prev = id
		}
		for c := 0; c < 8; c++ {
			cp := permutedCopy(t, base, rng, fmt.Sprintf("s%dc%d", s, c))
			if err := cp.SetProp(cp.Nodes()[0].ID, "ts", strconv.Itoa(rng.Int())); err != nil {
				t.Fatal(err)
			}
			trials = append(trials, cp)
		}
	}
	rng.Shuffle(len(trials), func(i, j int) { trials[i], trials[j] = trials[j], trials[i] })
	return trials
}

// seedSimilarityClasses replicates the seed implementation's decision
// pattern: a linear scan over class representatives where every
// fingerprint-passing candidate pair goes to the ASP solver.
func seedSimilarityClasses(trials []*graph.Graph) [][]int {
	var classes [][]int
	for i, g := range trials {
		placed := false
		for ci, c := range classes {
			rep := trials[c[0]]
			if rep.Fingerprint() != g.Fingerprint() {
				continue
			}
			if _, ok := match.SimilarASP(rep, g); ok {
				classes[ci] = append(classes[ci], i)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, []int{i})
		}
	}
	return classes
}

// TestClassifierSolverInvocationReduction is the acceptance criterion:
// on a 32-trial corpus with 4 similarity classes the engine must invoke
// the ASP solver at least 3x less often than the seed path.
func TestClassifierSolverInvocationReduction(t *testing.T) {
	trials := classCorpus(t, 11)

	engineStart := asp.SolveInvocations()
	engineClasses := provmark.NewClassifier().Classes(trials)
	engineSolves := asp.SolveInvocations() - engineStart

	seedStart := asp.SolveInvocations()
	seedClasses := seedSimilarityClasses(trials)
	seedSolves := asp.SolveInvocations() - seedStart

	if !reflect.DeepEqual(engineClasses, seedClasses) {
		t.Fatalf("engine and seed disagree:\nengine: %v\nseed:   %v", engineClasses, seedClasses)
	}
	if len(engineClasses) < 4 {
		t.Fatalf("corpus produced %d classes, want >= 4", len(engineClasses))
	}
	// The seed confirms every joining member through the solver (32
	// trials - 4 class openers = 28 solves); the asymmetric corpus lets
	// the engine confirm every pair through the forced-mapping verifier.
	if seedSolves < 3*engineSolves || seedSolves == 0 {
		t.Errorf("engine used %d ASP solves vs seed %d; want >= 3x reduction",
			engineSolves, seedSolves)
	}
}
