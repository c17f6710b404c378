package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"provmark/internal/bench"
	"provmark/internal/benchprog"
	"provmark/internal/benchprog/synth"
	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
	"provmark/internal/jobs"
	"provmark/internal/jobs/client"
	"provmark/internal/wire"
)

// Route labels of the provmarkd handlers whose server-side latency
// the traced run scrapes from GET /metrics.
const (
	routeSubmit = "POST /v1/jobs"
	routeStream = "GET /v1/jobs/{id}/stream"
	routeQuery  = "POST /v1/query"
)

// service is an in-process provmarkd: a job manager behind the full
// jobs.NewServer middleware chain, served over loopback.
type service struct {
	m  *jobs.Manager
	ts *httptest.Server
	tp *http.Transport
	// plain serves untraced ops; counted also counts the NDJSON bytes
	// of job streams for the traced run.
	plain, counted *client.Client
	streamBytes    atomic.Int64
}

func startService(workers int) (*service, error) {
	m := jobs.NewManager(jobs.Config{Workers: workers})
	h, err := jobs.NewServer(m)
	if err != nil {
		m.Close()
		return nil, err
	}
	s := &service{m: m, ts: httptest.NewServer(h), tp: &http.Transport{MaxIdleConnsPerHost: 4}}
	s.plain = client.New(s.ts.URL, &http.Client{Transport: s.tp})
	s.counted = client.New(s.ts.URL, &http.Client{Transport: countingTransport{base: s.tp, n: &s.streamBytes}})
	return s, nil
}

func (s *service) client(tr *tracer) *client.Client {
	if tr != nil {
		return s.counted
	}
	return s.plain
}

func (s *service) close() {
	s.tp.CloseIdleConnections()
	s.ts.Close()
	s.m.Close()
}

// metricLine matches the per-route latency histogram sum and count in
// the /metrics exposition.
var metricLine = regexp.MustCompile(`^provmarkd_http_request_duration_seconds_(sum|count)\{route="([^"]*)"\} (\S+)$`)

// counters scrapes the per-route server latency from GET /metrics and
// reads the dedup store and classifier counters.
func (s *service) counters(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: s.tp}).Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		m := metricLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: %q: %w", sc.Text(), err)
		}
		if m[1] == "sum" {
			out["http.sum_ms "+m[2]] = v * 1000
		} else {
			out["http.count "+m[2]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	st := s.m.Store().Stats()
	out["jobs.store_hits"] = float64(st.Hits)
	out["jobs.store_misses"] = float64(st.Misses)
	out["wire.stream_bytes"] = float64(s.streamBytes.Load())
	cls := s.m.Classifier().Stats()
	out["classifier.confirms"] = float64(cls.Confirms)
	out["classifier.cache_hits"] = float64(cls.CacheHits)
	return out, nil
}

// countingTransport counts the response bytes of job streams.
type countingTransport struct {
	base http.RoundTripper
	n    *atomic.Int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/stream") {
		resp.Body = countingBody{ReadCloser: resp.Body, n: t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// submitSession drives the service write path: every op is one job of
// the three tools over six built-in benchmarks (dedup-store hits after
// warm-up) plus one synthesized scenario no earlier job has run
// (misses).
type submitSession struct {
	*service
	builtins []string
	pool     []benchprog.Scenario
	// ref holds the GET /v1/results bytes of each built-in cell.
	ref map[string][]byte
}

// submitPool is the number of synthesized scenarios one set-up
// generates; op i runs pool[i mod submitPool] under a name unique to
// the op, so its cells always miss the store.
const submitPool = 96

func setupSubmit(ctx context.Context, seed int64) (session, setupStats, error) {
	var st setupStats
	rng := rand.New(rand.NewSource(seed))
	names := benchprog.Names()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	builtins := names[:6]

	start := time.Now()
	gen := synth.New(seed, synth.Options{MinSteps: 6, MaxSteps: 6})
	pool := make([]benchprog.Scenario, 0, submitPool)
	for len(pool) < submitPool {
		scn, err := gen.Next()
		if err != nil {
			return nil, st, err
		}
		pool = append(pool, scn)
	}
	st.synthMS = ms(time.Since(start))
	start = time.Now()
	for _, scn := range pool {
		if _, err := scn.Compile(); err != nil {
			return nil, st, fmt.Errorf("synthesized scenario %s: %w", scn.Name, err)
		}
	}
	st.compileMS = ms(time.Since(start))

	svc, err := startService(nproc())
	if err != nil {
		return nil, st, err
	}
	s := &submitSession{service: svc, builtins: builtins, pool: pool}
	if err := s.fillReference(ctx); err != nil {
		s.close()
		return nil, st, err
	}
	if err := warmUp(ctx, s); err != nil {
		s.close()
		return nil, st, err
	}
	return s, st, nil
}

// fillReference runs the built-in cells once and keeps their stored
// result bytes; later jobs must serve byte-identical cached cells.
func (s *submitSession) fillReference(ctx context.Context) error {
	spec := &wire.JobSpec{Tools: bench.Tools, Benchmarks: s.builtins, Capture: &wire.CaptureOptions{Fast: true}}
	var cells []string
	st, err := s.plain.Run(ctx, spec, func(mr *wire.MatrixResult) error {
		if mr.Err != "" {
			return fmt.Errorf("%s/%s: %s", mr.Tool, mr.Benchmark, mr.Err)
		}
		cells = append(cells, mr.Cell)
		return nil
	})
	if err != nil {
		return fmt.Errorf("reference job: %w", err)
	}
	if st.State != wire.JobDone || st.Failed != 0 || len(cells) != len(bench.Tools)*len(s.builtins) {
		return fmt.Errorf("reference job: state %s, %d failed, %d cells", st.State, st.Failed, len(cells))
	}
	s.ref = make(map[string][]byte, len(cells))
	for _, key := range cells {
		body, err := getBytes(ctx, s.tp, s.ts.URL+"/v1/results/"+key)
		if err != nil {
			return err
		}
		s.ref[key] = body
	}
	return nil
}

func getBytes(ctx context.Context, tp http.RoundTripper, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: tp}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return bytes.TrimSpace(body), nil
}

func (s *submitSession) spec(i int) *wire.JobSpec {
	scn := s.pool[((i%len(s.pool))+len(s.pool))%len(s.pool)].Clone()
	scn.Name = fmt.Sprintf("%s-op%d", scn.Name, i)
	return &wire.JobSpec{
		Tools:      bench.Tools,
		Benchmarks: s.builtins,
		Scenarios:  []benchprog.Scenario{scn},
		Capture:    &wire.CaptureOptions{Fast: true},
	}
}

func (s *submitSession) op(ctx context.Context, i int, tr *tracer, parent int64) (func() error, error) {
	spec := s.spec(i)
	cl := s.client(tr)
	var cells []*wire.MatrixResult
	collect := func(mr *wire.MatrixResult) error {
		cells = append(cells, mr)
		return nil
	}
	var st *wire.JobStatus
	var err error
	if tr == nil {
		st, err = cl.Run(ctx, spec, collect)
	} else {
		st, err = s.tracedRun(ctx, cl, spec, i, tr, parent, &cells)
	}
	if err != nil {
		return nil, err
	}
	return func() error { return s.check(st, cells) }, nil
}

// tracedRun is client.Run split at its layer boundaries: submit, the
// NDJSON stream (with the first cell's arrival), and the final status.
func (s *submitSession) tracedRun(ctx context.Context, cl *client.Client, spec *wire.JobSpec, i int, tr *tracer, parent int64, cells *[]*wire.MatrixResult) (*wire.JobStatus, error) {
	start := time.Now()
	o := tr.begin("jobs.submit", i, parent, "")
	st, err := cl.Submit(ctx, spec)
	tr.end(o)
	if err != nil {
		return nil, err
	}
	o = tr.begin("jobs.stream", i, parent, st.ID)
	err = cl.Stream(ctx, st.ID, func(mr *wire.MatrixResult) error {
		now := time.Now()
		if len(*cells) == 0 {
			tr.span("jobs.first_cell", i, parent, st.ID, start, now)
		}
		*cells = append(*cells, mr)
		tr.add("jobs.cells", 1)
		if !mr.Cached && mr.Result != nil {
			cellStages(tr, i, o.id, mr, now)
		}
		return nil
	})
	tr.end(o)
	if err != nil {
		return nil, err
	}
	return cl.Status(ctx, st.ID)
}

// cellStages lays a freshly computed cell's stage times out as spans
// ending when the cell arrived, so the service path reports the same
// capture and pipeline layers as the matrix workloads.
func cellStages(tr *tracer, op int, parent int64, mr *wire.MatrixResult, arrived time.Time) {
	t := mr.Result.Times
	attr := mr.Tool + "/" + mr.Benchmark
	at := arrived.Add(-time.Duration(t.TotalNS))
	stages := []struct {
		name string
		ns   int64
	}{
		{"capture.record", t.RecordingNS},
		{"capture.transform", t.TransformationNS},
		{"provmark.generalization", t.GeneralizationNS},
		{"provmark.comparison", t.ComparisonNS},
	}
	for _, sg := range stages {
		end := at.Add(time.Duration(sg.ns))
		id := tr.span(sg.name, op, parent, attr, at, end)
		if sg.name == "provmark.generalization" {
			tr.span("provmark.classification", op, id, attr, at, at.Add(time.Duration(t.ClassificationNS)))
		}
		at = end
	}
	tr.add("capture.records", float64(2*mr.Result.Trials))
}

func (s *submitSession) check(st *wire.JobStatus, cells []*wire.MatrixResult) error {
	want := len(bench.Tools) * (len(s.builtins) + 1)
	if st.State != wire.JobDone || st.Failed != 0 || st.Completed != want || len(cells) != want {
		return fmt.Errorf("submit: job %s: state %s, %d completed, %d failed, %d streamed; want done with %d cells",
			st.ID, st.State, st.Completed, st.Failed, len(cells), want)
	}
	hits := 0
	for _, mr := range cells {
		if mr.Err != "" || mr.Result == nil {
			return fmt.Errorf("submit: %s/%s: %s", mr.Tool, mr.Benchmark, mr.Err)
		}
		ref, builtin := s.ref[mr.Cell]
		if mr.Cached != builtin {
			return fmt.Errorf("submit: %s/%s: cached=%v, want %v", mr.Tool, mr.Benchmark, mr.Cached, builtin)
		}
		if !builtin {
			continue
		}
		hits++
		got, err := wire.EncodeResult(mr.Result)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, ref) {
			return fmt.Errorf("submit: %s/%s: cached cell differs from GET /v1/results", mr.Tool, mr.Benchmark)
		}
	}
	if hits != len(s.ref) {
		return fmt.Errorf("submit: %d cached cells, want %d", hits, len(s.ref))
	}
	return nil
}

// detectionRules is the repository's Datalog detection program; the
// query workload evaluates its four goals.
const detectionRules = "examples/detection/suspicious.dl"

var detectionGoals = []string{"suspicious(P)", "tainted(X)", "unmitigated(P)", "ancestor(X, Y)"}

// querySession drives the service read path: every op is the four
// detection goals over the fg graph of every stored attack cell.
type querySession struct {
	*service
	reqs []*wire.QueryRequest
	// want holds each request's reference bindings.
	want []*wire.QueryResponse
	// results holds each request's GET /v1/results payload, which the
	// traced run replays through the Datalog layers.
	results []*wire.Result
}

// replayEvery is how often the traced run replays an op's queries
// locally: one op in replayEvery.
const replayEvery = 4

func setupQuery(ctx context.Context, seed int64) (session, setupStats, error) {
	var st setupStats
	rules, err := os.ReadFile(detectionRules)
	if err != nil {
		return nil, st, err
	}
	svc, err := startService(nproc())
	if err != nil {
		return nil, st, err
	}
	s := &querySession{service: svc}
	if err := s.fillCorpus(ctx, string(rules)); err != nil {
		s.close()
		return nil, st, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(s.reqs), func(i, j int) {
		s.reqs[i], s.reqs[j] = s.reqs[j], s.reqs[i]
		s.want[i], s.want[j] = s.want[j], s.want[i]
		s.results[i], s.results[j] = s.results[j], s.results[i]
	})
	if err := warmUp(ctx, s); err != nil {
		s.close()
		return nil, st, err
	}
	return s, st, nil
}

// fillCorpus stores the attack scenarios under every tool and builds
// each query's reference answer with jobs.EvalQuery.
func (s *querySession) fillCorpus(ctx context.Context, rules string) error {
	spec := &wire.JobSpec{
		Tools:      bench.Tools,
		Benchmarks: benchprog.ScenarioNames(benchprog.KindAttack),
		Capture:    &wire.CaptureOptions{Fast: true},
	}
	var cells []*wire.MatrixResult
	st, err := s.plain.Run(ctx, spec, func(mr *wire.MatrixResult) error {
		if mr.Err != "" {
			return fmt.Errorf("%s/%s: %s", mr.Tool, mr.Benchmark, mr.Err)
		}
		cells = append(cells, mr)
		return nil
	})
	if err != nil {
		return fmt.Errorf("corpus job: %w", err)
	}
	if st.State != wire.JobDone || st.Failed != 0 || len(cells) != len(bench.Tools)*len(spec.Benchmarks) {
		return fmt.Errorf("corpus job: state %s, %d failed, %d cells", st.State, st.Failed, len(cells))
	}
	for _, mr := range cells {
		res, err := s.plain.Result(ctx, mr.Cell)
		if err != nil {
			return err
		}
		for _, goal := range detectionGoals {
			req := &wire.QueryRequest{Cell: mr.Cell, Graph: wire.QueryGraphFG, Rules: rules, Goal: goal}
			want, err := jobs.EvalQuery(req, res)
			if err != nil {
				return fmt.Errorf("reference %s on %s/%s: %w", goal, mr.Tool, mr.Benchmark, err)
			}
			if goal == "suspicious(P)" && mr.Tool == "camflow" && want.Matches == 0 {
				return fmt.Errorf("reference: suspicious(P) matches nothing on camflow/%s", mr.Benchmark)
			}
			s.reqs = append(s.reqs, req)
			s.want = append(s.want, want)
			s.results = append(s.results, res)
		}
	}
	return nil
}

func (s *querySession) op(ctx context.Context, i int, tr *tracer, parent int64) (func() error, error) {
	cl := s.client(tr)
	got := make([]*wire.QueryResponse, len(s.reqs))
	for k, req := range s.reqs {
		o := tr.begin("jobs.query", i, parent, req.Goal)
		resp, err := cl.Query(ctx, req)
		tr.end(o)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", req.Goal, req.Cell, err)
		}
		got[k] = resp
	}
	if tr != nil && i%replayEvery == 0 {
		if err := s.replay(i, tr, parent); err != nil {
			return nil, err
		}
	}
	return func() error {
		for k, resp := range got {
			if err := sameBindings(resp.Bindings, s.want[k].Bindings); err != nil {
				return fmt.Errorf("query %s on %s: %w", s.reqs[k].Goal, s.reqs[k].Cell, err)
			}
			if resp.Matches != len(resp.Bindings) {
				return fmt.Errorf("query %s on %s: %d matches, %d bindings", s.reqs[k].Goal, s.reqs[k].Cell, resp.Matches, len(resp.Bindings))
			}
		}
		return nil
	}, nil
}

// replay evaluates the op's queries again in this process, timing
// each Datalog layer the server's query handler calls.
func (s *querySession) replay(op int, tr *tracer, parent int64) error {
	for k, req := range s.reqs {
		o := tr.begin("analyze.check", op, parent, req.Goal)
		goal, err := datalog.ParseAtom(req.Goal)
		if err != nil {
			return err
		}
		prog, diags := analyze.Check(req.Rules, analyze.Options{Goal: &goal})
		if analyze.HasErrors(diags) {
			return fmt.Errorf("replay %s: %s", req.Goal, analyze.Summary(diags))
		}
		rules, _ := analyze.Optimize(prog.Rules, goal)
		tr.end(o)
		o = tr.begin("datalog.load", op, parent, req.Cell)
		g, err := s.results[k].FG.Build()
		if err != nil {
			return err
		}
		db := datalog.NewDatabase()
		db.LoadGraph(g)
		tr.end(o)
		o = tr.begin("datalog.run", op, parent, req.Goal)
		err = db.Run(rules)
		tr.end(o)
		if err != nil {
			return err
		}
		o = tr.begin("datalog.query", op, parent, req.Goal)
		bindings := db.Query(goal)
		tr.end(o)
		if err := sameBindings(bindings, s.want[k].Bindings); err != nil {
			return fmt.Errorf("replay %s on %s: %w", req.Goal, req.Cell, err)
		}
		es := db.Stats()
		tr.add("datalog.join_probes", float64(es.JoinProbes))
		tr.add("datalog.derived", float64(es.Derived))
		tr.add("datalog.iterations", float64(es.Iterations))
	}
	tr.add("datalog.replays", 1)
	return nil
}

func sameBindings(got, want []map[string]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d bindings, reference has %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("binding %d differs from reference", i)
		}
		for k, v := range want[i] {
			if got[i][k] != v {
				return fmt.Errorf("binding %d differs from reference", i)
			}
		}
	}
	return nil
}
