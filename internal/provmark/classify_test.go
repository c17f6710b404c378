package provmark_test

// Differential test harness for the similarity classification engine:
// a randomized corpus of seeded permutations and label/edge mutations,
// asserting that every decision path — the production match.Similar,
// the pure-ASP oracle match.SimilarASP, the VF2-style backtracker
// match.SimilarDirect, and fingerprint bucketing through the
// classifier — reaches the same verdict on every pair. Plus the
// instrumented acceptance tests: trial graphs fingerprint at most once
// per pipeline run, and the engine spends at least 3x fewer ASP solver
// invocations than the seed linear scan on a 32-trial corpus.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"provmark/internal/asp"
	"provmark/internal/benchprog"
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

	classes := provmark.SimilarityClasses([]*graph.Graph{a, b})
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

// TestDifferentialCorpusClassification throws permuted families into
// one classification call: permuted copies must land in one class per
// family, label mutants in classes of their own.
func TestDifferentialCorpusClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var trials []*graph.Graph
	wantClassOf := make(map[int]string) // trial index -> family key
	for fam := 0; fam < 6; fam++ {
		base := randomBase(t, rng)
		for c := 0; c < 3; c++ {
			wantClassOf[len(trials)] = fmt.Sprintf("fam%d", fam)
			trials = append(trials, permutedCopy(t, base, rng, fmt.Sprintf("f%dc%d", fam, c)))
		}
		wantClassOf[len(trials)] = fmt.Sprintf("fam%d-mutant", fam)
		trials = append(trials, labelMutatedCopy(t, base, rng))
	}
	classes := provmark.SimilarityClasses(trials)
	for _, class := range classes {
		for _, i := range class[1:] {
			if wantClassOf[i] != wantClassOf[class[0]] {
				t.Errorf("trial %d (%s) classified with trial %d (%s)",
					i, wantClassOf[i], class[0], wantClassOf[class[0]])
			}
		}
	}
	byFamily := make(map[string]int)
	for _, class := range classes {
		byFamily[wantClassOf[class[0]]]++
	}
	for fam, n := range byFamily {
		if n != 1 {
			t.Errorf("family %s split across %d classes", fam, n)
		}
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
			if graph.ShapeFingerprint(rep) != graph.ShapeFingerprint(g) {
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
	engineClasses := provmark.SimilarityClasses(trials)
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

// TestTrialGraphsFingerprintedOncePerRun is the memoization acceptance
// criterion: a pipeline run fingerprints each trial graph at most once
// (8 trial graphs at WithTrials(4)), plus the two generalized graphs
// checked in the comparison stage.
func TestTrialGraphsFingerprintedOncePerRun(t *testing.T) {
	rec := fastRecorders()["spade"]
	prog, ok := benchprog.ByName("rename")
	if !ok {
		t.Fatal("unknown benchmark rename")
	}
	runner := provmark.New(rec, provmark.WithTrials(4))
	before := graph.FingerprintComputations()
	if _, err := runner.RunContext(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	delta := graph.FingerprintComputations() - before
	const maxComputes = 2*4 + 2 // bg+fg trial graphs, once each + generalized FG/BG
	if delta > maxComputes {
		t.Errorf("pipeline run computed %d fingerprints, want <= %d (each graph at most once)",
			delta, maxComputes)
	}
	if delta == 0 {
		t.Error("pipeline run computed no fingerprints; instrumentation broken?")
	}
}

// TestClassifierIsStateless: classifying the same graphs twice through
// one engine yields the same partition and repeats every confirmation —
// nothing from the first call is reused by the second.
func TestClassifierIsStateless(t *testing.T) {
	trials := classCorpus(t, 31)
	c := provmark.NewClassifier()
	first := c.Classes(trials)
	s1 := c.Stats()
	second := c.Classes(trials)
	s2 := c.Stats()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("re-classification changed the partition")
	}
	if s1.Confirms == 0 {
		t.Fatal("first classification confirmed nothing; corpus degenerate?")
	}
	if d2 := s2.Confirms - s1.Confirms; d2 != s1.Confirms {
		t.Errorf("second classification ran %d confirms, first ran %d", d2, s1.Confirms)
	}
	if s2.Graphs != 2*uint64(len(trials)) {
		t.Errorf("Graphs = %d after two calls over %d trials", s2.Graphs, len(trials))
	}
}

// TestClassifierRetainsNoGraphs: a live engine must not keep the trial
// graphs it classified reachable, so a long-lived engine (the job
// manager holds one for the process lifetime) costs no memory per
// classified graph.
func TestClassifierRetainsNoGraphs(t *testing.T) {
	c := provmark.NewClassifier()
	var finalized atomic.Int64
	n := classifyFinalizable(t, c, &finalized)
	for i := 0; i < 100 && finalized.Load() < int64(n); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := finalized.Load(); got != int64(n) {
		t.Errorf("%d of %d classified trial graphs still reachable", int64(n)-got, n)
	}
	runtime.KeepAlive(c)
}

// classifyFinalizable classifies a corpus whose graphs count their own
// finalization, and drops every reference to them on return.
func classifyFinalizable(t *testing.T, c *provmark.Classifier, finalized *atomic.Int64) int {
	trials := classCorpus(t, 31)
	for _, g := range trials {
		runtime.SetFinalizer(g, func(*graph.Graph) { finalized.Add(1) })
	}
	if classes := c.Classes(trials); len(classes) == len(trials) {
		t.Fatal("classification merged nothing; corpus degenerate?")
	}
	return len(trials)
}

// TestClassifierSymmetricFallsBackToSolver: on graphs whose WL
// refinement is not discrete (interchangeable star leaves) the forced
// path must stand aside and the ASP solver confirm.
func TestClassifierSymmetricFallsBackToSolver(t *testing.T) {
	star := func(out, in int) *graph.Graph {
		g := graph.New()
		hub := g.AddNode("hub", nil)
		for i := 0; i < out; i++ {
			leaf := g.AddNode("leaf", nil)
			mustEdge(t, g, hub, leaf, "spoke")
		}
		for i := 0; i < in; i++ {
			leaf := g.AddNode("leaf", nil)
			mustEdge(t, g, leaf, hub, "spoke")
		}
		return g
	}
	rng := rand.New(rand.NewSource(3))
	s1 := star(3, 1)
	s2 := permutedCopy(t, s1, rng, "s2")
	s3 := star(2, 2) // same counts and labels, different orientation

	before := asp.SolveInvocations()
	classes := provmark.SimilarityClasses([]*graph.Graph{s1, s2, s3})
	delta := asp.SolveInvocations() - before

	if len(classes) != 2 {
		t.Fatalf("got %d classes, want 2: %v", len(classes), classes)
	}
	if !reflect.DeepEqual(classes[0], []int{0, 1}) {
		t.Errorf("permuted stars not classified together: %v", classes)
	}
	if delta == 0 {
		t.Error("symmetric confirmation ran no ASP solves; forced path overreached")
	}
}
