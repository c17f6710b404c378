package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"provmark/internal/bench"
	"provmark/internal/benchprog"
	"provmark/internal/capture"
	_ "provmark/internal/capture/camflow"
	_ "provmark/internal/capture/opus"
	_ "provmark/internal/capture/spade"
	"provmark/internal/graph"
	"provmark/internal/provmark"
)

// matrixSession runs one whole provmark.Matrix grid per op: the
// table2 and scale workloads.
type matrixSession struct {
	// orders are seed-derived row orders of the grid's programs; op i
	// uses orders[i mod len(orders)], so a run averages over how the
	// row order packs cells onto the workers. Warm-up ops (i < 0) use
	// the programs in their registered order, so set-up time does not
	// depend on the seed.
	progs   []benchprog.Program
	orders  [][]benchprog.Program
	workers int
	check   func(cells []provmark.MatrixResult) error
}

func (s *matrixSession) op(ctx context.Context, i int, tr *tracer, parent int64) (func() error, error) {
	m := provmark.Matrix{
		Tools:      bench.Tools,
		Capture:    capture.Options{Fast: true},
		Benchmarks: s.progs,
		Workers:    s.workers,
	}
	if i >= 0 {
		m.Benchmarks = s.orders[i%len(s.orders)]
	}
	var cls *provmark.Classifier
	if tr != nil {
		// The traced run swaps in timing wrappers around the same
		// registry recorders and a classifier it can read, and installs
		// a stage observer. Like the untraced Matrix, it uses a fresh
		// classifier per grid.
		recs, err := tracedRecorders(tr, i, parent)
		if err != nil {
			return nil, err
		}
		m.Tools, m.ContextRecorders = nil, recs
		cls = provmark.NewClassifier()
		m.Pipeline = []provmark.Option{
			provmark.WithClassifier(cls),
			provmark.WithStageObserver(stageSpans(tr, i, parent)),
		}
	}
	start := time.Now()
	cells, err := m.Run(ctx)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		wall := time.Since(start)
		var busy time.Duration
		for _, c := range cells {
			if c.Result != nil {
				busy += c.Result.Times.Total()
			}
		}
		tr.add("matrix.cell_ms", ms(busy))
		tr.add("matrix.capacity_ms", float64(min(s.workers, len(cells)))*ms(wall))
		st := cls.Stats()
		tr.add("classifier.confirms", float64(st.Confirms))
		tr.add("classifier.cache_hits", float64(st.CacheHits))
	}
	return func() error { return s.check(cells) }, nil
}

func (s *matrixSession) counters(context.Context) (map[string]float64, error) { return nil, nil }

func (s *matrixSession) close() {}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracedRecorders opens the three registry recorders and wraps each in
// a recorder that records a span per Record and Transform call.
func tracedRecorders(tr *tracer, op int, parent int64) ([]capture.RecorderContext, error) {
	out := make([]capture.RecorderContext, 0, len(bench.Tools))
	for _, name := range bench.Tools {
		rec, err := capture.OpenContext(name, capture.Options{Fast: true})
		if err != nil {
			return nil, err
		}
		out = append(out, timedRecorder{RecorderContext: rec, tr: tr, op: op, parent: parent})
	}
	return out, nil
}

// timedRecorder times calls into a capture recorder from outside.
type timedRecorder struct {
	capture.RecorderContext
	tr     *tracer
	op     int
	parent int64
}

func (r timedRecorder) Record(ctx context.Context, prog benchprog.Program, v benchprog.Variant, trial int) (capture.Native, error) {
	o := r.tr.begin("capture.record", r.op, r.parent, r.Name()+"/"+prog.Name)
	n, err := r.RecorderContext.Record(ctx, prog, v, trial)
	r.tr.end(o)
	r.tr.add("capture.records", 1)
	return n, err
}

func (r timedRecorder) Transform(n capture.Native) (*graph.Graph, error) {
	o := r.tr.begin("capture.transform", r.op, r.parent, r.Name())
	g, err := r.RecorderContext.Transform(n)
	r.tr.end(o)
	return g, err
}

// Unwrap lets the pipeline's optional-interface probes (graph
// completeness filtering) see the wrapped registry recorder.
func (r timedRecorder) Unwrap() capture.Recorder {
	if u, ok := r.RecorderContext.(interface{ Unwrap() capture.Recorder }); ok {
		return u.Unwrap()
	}
	return nil
}

// stageSpans turns the pipeline's stage events into spans ending when
// the event arrives.
func stageSpans(tr *tracer, op int, parent int64) provmark.StageObserver {
	return func(ev provmark.StageEvent) {
		end := time.Now()
		tr.span("provmark."+ev.Stage.String(), op, parent, ev.Tool+"/"+ev.Benchmark, end.Add(-ev.Duration), end)
	}
}

// compileScenarios compiles registered scenarios by name, timing the
// compiler.
func compileScenarios(names []string, st *setupStats) ([]benchprog.Program, error) {
	start := time.Now()
	progs := make([]benchprog.Program, 0, len(names))
	for _, name := range names {
		scn, ok := benchprog.ScenarioByName(name)
		if !ok {
			return nil, fmt.Errorf("no registered scenario %q", name)
		}
		prog, err := scn.Compile()
		if err != nil {
			return nil, err
		}
		progs = append(progs, prog)
	}
	st.compileMS += ms(time.Since(start))
	return progs, nil
}

// table2Orders is how many seed-permuted row orders a table2 set-up
// draws.
const table2Orders = 16

// setupTable2 compiles the 44 Table 2 programs, draws seed-permuted
// row orders of them, and runs the warm-up grids.
func setupTable2(ctx context.Context, seed int64) (session, setupStats, error) {
	var st setupStats
	progs, err := compileScenarios(benchprog.Names(), &st)
	if err != nil {
		return nil, st, err
	}
	rng := rand.New(rand.NewSource(seed))
	orders := make([][]benchprog.Program, table2Orders)
	for k := range orders {
		orders[k] = append([]benchprog.Program(nil), progs...)
		rng.Shuffle(len(progs), func(i, j int) { orders[k][i], orders[k][j] = orders[k][j], orders[k][i] })
	}
	expected := bench.ExpectedTable2()
	s := &matrixSession{progs: progs, orders: orders, workers: nproc(), check: func(cells []provmark.MatrixResult) error {
		if len(cells) != len(bench.Tools)*len(progs) {
			return fmt.Errorf("table2: %d cells, want %d", len(cells), len(bench.Tools)*len(progs))
		}
		for _, c := range cells {
			if c.Err != nil {
				return fmt.Errorf("table2: %s/%s: %w", c.Tool, c.Benchmark, c.Err)
			}
			want, ok := expected[c.Benchmark][c.Tool]
			if !ok {
				return fmt.Errorf("table2: %s/%s: no expected cell", c.Tool, c.Benchmark)
			}
			if got := !c.Result.Empty; got != want.OK {
				return fmt.Errorf("table2: %s/%s: ok=%v, Table 2 says %v", c.Tool, c.Benchmark, got, want.OK)
			}
		}
		return nil
	}}
	return s, st, warmUp(ctx, s)
}

// scaleRepeats are the ScaleScenario sizes of one scale op.
var scaleRepeats = []int{8, 16, 32}

// setupScale compiles the scalability scenarios, orders them every
// possible way starting from a seed-chosen order, and records each
// cell's target shape from a warm-up sweep; later sweeps must
// reproduce it.
func setupScale(ctx context.Context, seed int64) (session, setupStats, error) {
	var st setupStats
	start := time.Now()
	progs := make([]benchprog.Program, 0, len(scaleRepeats))
	for _, n := range scaleRepeats {
		prog, err := benchprog.ScaleScenario(n).Compile()
		if err != nil {
			return nil, st, err
		}
		progs = append(progs, prog)
	}
	st.compileMS = ms(time.Since(start))
	orders := permutations(progs)
	off := rand.New(rand.NewSource(seed)).Intn(len(orders))
	orders = append(orders[off:], orders[:off]...)

	type shape struct{ nodes, edges int }
	var ref map[string]shape
	s := &matrixSession{progs: progs, orders: orders, workers: nproc()}
	s.check = func(cells []provmark.MatrixResult) error {
		if len(cells) != len(bench.Tools)*len(progs) {
			return fmt.Errorf("scale: %d cells, want %d", len(cells), len(bench.Tools)*len(progs))
		}
		got := make(map[string]shape, len(cells))
		for _, c := range cells {
			key := c.Tool + "/" + c.Benchmark
			if c.Err != nil {
				return fmt.Errorf("scale: %s: %w", key, c.Err)
			}
			if c.Result.Empty || c.Result.Target == nil {
				return fmt.Errorf("scale: %s: empty target", key)
			}
			got[key] = shape{c.Result.Target.NumNodes(), c.Result.Target.NumEdges()}
			if ref != nil && got[key] != ref[key] {
				return fmt.Errorf("scale: %s: target %v, warm-up had %v", key, got[key], ref[key])
			}
		}
		if ref == nil {
			ref = got
		}
		return nil
	}
	return s, st, warmUp(ctx, s)
}

// permutations lists every order of progs.
func permutations(progs []benchprog.Program) [][]benchprog.Program {
	if len(progs) <= 1 {
		return [][]benchprog.Program{append([]benchprog.Program(nil), progs...)}
	}
	var out [][]benchprog.Program
	for i := range progs {
		rest := append(append([]benchprog.Program(nil), progs[:i]...), progs[i+1:]...)
		for _, tail := range permutations(rest) {
			out = append(out, append([]benchprog.Program{progs[i]}, tail...))
		}
	}
	return out
}

// warmUpOps is the fixed number of ops every set-up runs before
// timing starts.
const warmUpOps = 2

func warmUp(ctx context.Context, s session) error {
	for i := 0; i < warmUpOps; i++ {
		check, err := s.op(ctx, -1-i, nil, 0)
		if err == nil {
			err = check()
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}
