package bench

// Perf snapshots: a small, deterministic performance harness over the
// two counter-instrumented hot paths — Datalog ancestry evaluation
// (join probes) and similarity classification (fingerprint
// computations, ASP solver invocations). Each workload runs exactly
// once and reports wall clock, allocations, and its counters; the
// counters are exact and reproducible (the workloads are seeded and the
// engines deterministic), so the regression gate compares counters, not
// noisy nanoseconds.
//
// cmd/provmark-perf writes the snapshot as BENCH_<id>.json and CI fails
// the build when any counter regresses past the gate factor.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"provmark/internal/asp"
	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
	"provmark/internal/graph"
	"provmark/internal/provmark"
)

// PerfSchema versions the snapshot document.
const PerfSchema = "provmark/bench-snapshot/v1"

// perfID numbers the snapshot artifact (BENCH_10.json).
const perfID = 10

// PerfResult is one workload's measurement.
type PerfResult struct {
	Name string `json:"name"`
	// NsOp / AllocsOp / BytesOp are single-iteration wall clock and
	// allocation figures — informative, not gated.
	NsOp     int64  `json:"ns_op"`
	AllocsOp uint64 `json:"allocs_op"`
	BytesOp  uint64 `json:"bytes_op"`
	// Counters holds the workload's deterministic work counters
	// (join_probes, fingerprints, solver_invocations) — the gated part.
	Counters map[string]int64 `json:"counters"`
}

// PerfSnapshot is the BENCH_*.json document.
type PerfSnapshot struct {
	Schema  string       `json:"schema"`
	ID      int          `json:"id"`
	Results []PerfResult `json:"results"`
}

// perfBaselines pins the expected counter values per workload. The
// workloads are deterministic, so these are exact measurements, not
// estimates; Gate fails when a counter exceeds baseline*factor.
var perfBaselines = map[string]map[string]int64{
	// The interned engine's probe discipline (round barriers, no
	// mid-round bleed between rules) counts slightly fewer probes than
	// the retired string engine did for the same joins; the parallel
	// run must match the sequential run exactly at any width.
	"datalog/ancestry/seminaive-flat":   {"join_probes": 12000},
	"datalog/ancestry/interned-par":     {"join_probes": 12000},
	"datalog/ancestry/seminaive-deep":   {"join_probes": 4000},
	"datalog/goal-ancestry/unoptimized": {"join_probes": 176003},
	"datalog/goal-ancestry/optimized":   {"join_probes": 804},
	"classify/similarity/asym-32x4":     {"fingerprints": 32, "solver_invocations": 0},
	"classify/similarity/sym-32x4":      {"fingerprints": 32, "solver_invocations": 28},
	"graph/wl-refine/interned":          {"fingerprints": 100, "distinct_fingerprints": 100},
}

// perfAllocCeilings caps allocs_op for the allocation-focused
// workloads: unlike the counters these are hard budgets, not
// factor-scaled baselines, because the whole point of the interned
// paths is that they stay off the allocator.
var perfAllocCeilings = map[string]uint64{
	// 100 cache-missing fingerprints measure ~360 allocations total
	// (the fingerprint string, the cached colour slab, and first-graph
	// workspace sizing); the frozen string refinement spends ~833k on
	// the same corpus (internal/graph's TestWLRefineAllocsUnderLegacy).
	// The budget leaves room for pool churn under GC pressure while
	// still gating two orders of magnitude below that.
	"graph/wl-refine/interned": 5_000,
	// The deep chain measures ~26k allocations (dominated by loading
	// the 2001-node graph, not by evaluation).
	"datalog/ancestry/seminaive-deep": 60_000,
}

// RunPerf executes every workload once and assembles the snapshot.
func RunPerf() (*PerfSnapshot, error) {
	snap := &PerfSnapshot{Schema: PerfSchema, ID: perfID}
	// The WL corpus is built up front so the measured allocations of the
	// wl-refine workload belong to the refinements, not graph assembly.
	wlGraphs := wlPerfCorpus(100, 256, 512, 9)
	workloads := []struct {
		name string
		work func() (map[string]int64, error)
	}{
		{"datalog/ancestry/seminaive-flat", func() (map[string]int64, error) {
			return ancestryWorkload(400, 5, 400*15, (*datalog.Database).Run)
		}},
		{"datalog/ancestry/interned-par", func() (map[string]int64, error) {
			return ancestryWorkload(400, 5, 400*15, func(db *datalog.Database, rules []datalog.Rule) error {
				return db.RunParallel(rules, 3)
			})
		}},
		{"datalog/ancestry/seminaive-deep", deepAncestryWorkload},
		{"datalog/goal-ancestry/unoptimized", func() (map[string]int64, error) {
			return goalAncestryWorkload(false)
		}},
		{"datalog/goal-ancestry/optimized", func() (map[string]int64, error) {
			return goalAncestryWorkload(true)
		}},
		{"classify/similarity/asym-32x4", func() (map[string]int64, error) {
			return classifyWorkload(asymPerfCorpus(32, 4, 2))
		}},
		{"classify/similarity/sym-32x4", func() (map[string]int64, error) {
			return classifyWorkload(symPerfCorpus(32, 4, 4))
		}},
		{"graph/wl-refine/interned", func() (map[string]int64, error) {
			return wlInternedWorkload(wlGraphs)
		}},
	}
	for _, w := range workloads {
		res, err := measure(w.name, w.work)
		if err != nil {
			return nil, fmt.Errorf("bench: perf %s: %w", w.name, err)
		}
		snap.Results = append(snap.Results, res)
	}
	return snap, nil
}

// Gate checks every gated counter against its baseline: a counter above
// baseline*factor is a regression and fails the snapshot. Counters
// below baseline are improvements and pass (the next snapshot commit
// can ratchet the baseline down).
func (s *PerfSnapshot) Gate(factor float64) error {
	byName := map[string]PerfResult{}
	for _, r := range s.Results {
		byName[r.Name] = r
	}
	for name, counters := range perfBaselines {
		r, ok := byName[name]
		if !ok {
			return fmt.Errorf("bench: perf gate: workload %s missing from snapshot", name)
		}
		for counter, base := range counters {
			got, ok := r.Counters[counter]
			if !ok {
				return fmt.Errorf("bench: perf gate: %s lacks counter %s", name, counter)
			}
			if float64(got) > float64(base)*factor {
				return fmt.Errorf("bench: perf gate: %s %s = %d exceeds %.1fx baseline %d",
					name, counter, got, factor, base)
			}
		}
	}
	for name, ceiling := range perfAllocCeilings {
		r, ok := byName[name]
		if !ok {
			return fmt.Errorf("bench: perf gate: workload %s missing from snapshot", name)
		}
		if r.AllocsOp > ceiling {
			return fmt.Errorf("bench: perf gate: %s allocs_op = %d exceeds budget %d",
				name, r.AllocsOp, ceiling)
		}
	}
	return nil
}

// measure runs one workload once, bracketing it with GC-settled memory
// stats so the allocation figures are attributable to the workload.
func measure(name string, work func() (map[string]int64, error)) (PerfResult, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	counters, err := work()
	elapsed := time.Since(start)
	if err != nil {
		return PerfResult{}, err
	}
	runtime.ReadMemStats(&after)
	return PerfResult{
		Name:     name,
		NsOp:     elapsed.Nanoseconds(),
		AllocsOp: after.Mallocs - before.Mallocs,
		BytesOp:  after.TotalAlloc - before.TotalAlloc,
		Counters: counters,
	}, nil
}

// perfAncestryGraph builds `chains` parallel chains of `length` edges —
// the corpus shape of the Datalog acceptance benchmarks.
func perfAncestryGraph(chains, length int) *graph.Graph {
	g := graph.New()
	for c := 0; c < chains; c++ {
		prev := g.AddNode("N", nil)
		for i := 0; i < length; i++ {
			next := g.AddNode("N", nil)
			if _, err := g.AddEdge(prev, next, "E", nil); err != nil {
				panic(err) // cannot happen: both endpoints were just added
			}
			prev = next
		}
	}
	return g
}

// ancestryWorkload evaluates full transitive closure over the flat
// chain corpus and reports the engine's join-probe counter.
func ancestryWorkload(chains, length, wantFacts int, eval func(*datalog.Database, []datalog.Rule) error) (map[string]int64, error) {
	rules, err := datalog.ParseRules(`
anc(X, Y) :- edge(_, X, Y, _).
anc(X, Z) :- anc(X, Y), edge(_, Y, Z, _).
`)
	if err != nil {
		return nil, err
	}
	db := datalog.NewDatabase()
	db.LoadGraph(perfAncestryGraph(chains, length))
	if err := eval(db, rules); err != nil {
		return nil, err
	}
	if got := len(db.Facts("anc")); got != wantFacts {
		return nil, fmt.Errorf("anc facts = %d, want %d", got, wantFacts)
	}
	return map[string]int64{"join_probes": db.Stats().JoinProbes}, nil
}

// deepAncestryWorkload evaluates single-source ancestry over one
// 2000-edge chain.
func deepAncestryWorkload() (map[string]int64, error) {
	rules, err := datalog.ParseRules(`
anc(Y) :- edge(_, "n1", Y, _).
anc(Z) :- anc(Y), edge(_, Y, Z, _).
`)
	if err != nil {
		return nil, err
	}
	db := datalog.NewDatabase()
	db.LoadGraph(perfAncestryGraph(1, 2000))
	if err := db.Run(rules); err != nil {
		return nil, err
	}
	if got := len(db.Facts("anc")); got != 2000 {
		return nil, fmt.Errorf("anc facts = %d, want 2000", got)
	}
	return map[string]int64{"join_probes": db.Stats().JoinProbes}, nil
}

// goalAncestryRules is the goal-directed corpus program, written the
// way a rule library accumulates: a full transitive closure (anc/2)
// that the reach goal never consumes, and a start rule whose body
// enumerates every edge before the selective node("root") test. The
// optimizer prunes the closure (goal-directed relevance) and flips the
// start body bound-first; both programs bind the same reach facts.
const goalAncestryRules = `
anc(X, Y) :- edge(_, X, Y, _).
anc(X, Z) :- anc(X, Y), edge(_, Y, Z, _).
start(P) :- edge(_, P, _, _), node(P, "root").
reach(P) :- start(P).
reach(Z) :- reach(Y), edge(_, Y, Z, _).
`

// perfGoalGraph builds the goal-ancestry corpus: one chain of rootLen
// edges whose head node carries the "root" label, buried among decoys
// anonymous chains of decoyLen edges each — only the labelled chain is
// relevant to the goal.
func perfGoalGraph(rootLen, decoys, decoyLen int) *graph.Graph {
	g := graph.New()
	prev := g.AddNode("root", nil)
	for i := 0; i < rootLen; i++ {
		next := g.AddNode("N", nil)
		if _, err := g.AddEdge(prev, next, "E", nil); err != nil {
			panic(err) // cannot happen: both endpoints were just added
		}
		prev = next
	}
	for c := 0; c < decoys; c++ {
		prev := g.AddNode("N", nil)
		for i := 0; i < decoyLen; i++ {
			next := g.AddNode("N", nil)
			if _, err := g.AddEdge(prev, next, "E", nil); err != nil {
				panic(err)
			}
			prev = next
		}
	}
	return g
}

// goalAncestryWorkload evaluates the reach(X) goal over the corpus,
// optionally through the analyzer's goal-directed optimizer. Both
// variants must derive exactly the 401 reach facts of the root chain —
// the probe counters differ, the answers may not.
func goalAncestryWorkload(optimize bool) (map[string]int64, error) {
	rules, err := datalog.ParseRules(goalAncestryRules)
	if err != nil {
		return nil, err
	}
	goal, err := datalog.ParseAtom("reach(X)")
	if err != nil {
		return nil, err
	}
	if optimize {
		rules, _ = analyze.Optimize(rules, goal)
	}
	db := datalog.NewDatabase()
	db.LoadGraph(perfGoalGraph(400, 300, 6))
	if err := db.Run(rules); err != nil {
		return nil, err
	}
	if got := len(db.Facts("reach")); got != 401 {
		return nil, fmt.Errorf("reach facts = %d, want 401", got)
	}
	return map[string]int64{"join_probes": db.Stats().JoinProbes}, nil
}

// wlPerfCorpus builds `count` seeded random provenance-shaped graphs
// for the WL refinement workload. The graphs are distinct, so the
// interned workload's fingerprints should all differ.
func wlPerfCorpus(count, nodes, edges int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"Process", "File", "Socket", "Pipe", "User", "Registry"}
	edgeLabels := []string{"Used", "WasGeneratedBy", "WasInformedBy", "WasAssociatedWith"}
	out := make([]*graph.Graph, 0, count)
	for c := 0; c < count; c++ {
		g := graph.New()
		ids := make([]graph.ElemID, 0, nodes)
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

// wlInternedWorkload fingerprints every corpus graph once through the
// pooled integer refinement. The cache-missing fingerprint path is the
// allocation-gated hot path: past the first graph (which sizes the
// pooled workspace) each refinement is allocation-free, so the whole
// workload's allocs_op stays within a fixed budget.
func wlInternedWorkload(graphs []*graph.Graph) (map[string]int64, error) {
	start := graph.FingerprintComputations()
	distinct := map[string]struct{}{}
	for _, g := range graphs {
		distinct[graph.ShapeFingerprint(g)] = struct{}{}
	}
	return map[string]int64{
		"fingerprints":          int64(graph.FingerprintComputations() - start),
		"distinct_fingerprints": int64(len(distinct)),
	}, nil
}

// classifyWorkload runs similarity classification over a corpus and
// reports the global fingerprint / solver counter deltas (both engines
// count through process-wide atomics).
func classifyWorkload(corpus []*graph.Graph) (map[string]int64, error) {
	startSolves := asp.SolveInvocations()
	startPrints := graph.FingerprintComputations()
	classes := provmark.NewClassifier().Classes(corpus)
	if len(classes) == 0 {
		return nil, fmt.Errorf("empty classification")
	}
	return map[string]int64{
		"fingerprints":       int64(graph.FingerprintComputations() - startPrints),
		"solver_invocations": int64(asp.SolveInvocations() - startSolves),
	}, nil
}

// symPerfCorpus builds trials of star graphs (hub plus interchangeable
// leaves): classes differ by leaf count, members are permuted copies.
// Mirrors the classification benchmark corpus.
func symPerfCorpus(trials, classes int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, 0, trials)
	for i := 0; i < trials; i++ {
		leaves := 3 + i%classes
		base := graph.New()
		hub := base.AddNode("hub", nil)
		for l := 0; l < leaves; l++ {
			leaf := base.AddNode("leaf", nil)
			if _, err := base.AddEdge(hub, leaf, "spoke", nil); err != nil {
				panic(err)
			}
		}
		out = append(out, permutedPerfCopy(base, rng, fmt.Sprintf("t%d", i)))
	}
	return out
}

// asymPerfCorpus builds permuted copies of distinct labelled chains.
func asymPerfCorpus(trials, classes int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, 0, trials)
	for i := 0; i < trials; i++ {
		shape := i % classes
		base := graph.New()
		var prev graph.ElemID
		for p := 0; p <= shape+2; p++ {
			id := base.AddNode(fmt.Sprintf("s%dp%d", shape, p), nil)
			if p > 0 {
				if _, err := base.AddEdge(prev, id, "next", nil); err != nil {
					panic(err)
				}
			}
			prev = id
		}
		out = append(out, permutedPerfCopy(base, rng, fmt.Sprintf("t%d", i)))
	}
	return out
}

// permutedPerfCopy rebuilds a graph with shuffled insertion order and
// fresh element IDs, so structural equivalence is all the classifier
// can rely on.
func permutedPerfCopy(g *graph.Graph, rng *rand.Rand, prefix string) *graph.Graph {
	out := graph.New()
	nodes := g.Nodes()
	rename := make(map[graph.ElemID]graph.ElemID, len(nodes))
	for i, pi := range rng.Perm(len(nodes)) {
		n := nodes[pi]
		id := graph.ElemID(fmt.Sprintf("%s_n%d", prefix, i))
		rename[n.ID] = id
		if err := out.InsertNode(id, n.Label, n.Props); err != nil {
			panic(err)
		}
	}
	edges := g.Edges()
	for i, pi := range rng.Perm(len(edges)) {
		e := edges[pi]
		id := graph.ElemID(fmt.Sprintf("%s_e%d", prefix, i))
		if err := out.InsertEdge(id, rename[e.Src], rename[e.Tgt], e.Label, e.Props); err != nil {
			panic(err)
		}
	}
	return out
}
