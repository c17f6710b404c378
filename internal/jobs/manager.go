// Package jobs is ProvMark's job-oriented execution service: it
// accepts matrix specifications in the versioned wire vocabulary
// (wire.JobSpec), expands them into (tool, benchmark) cells, runs the
// cells of every job on one shared provmark.Pool, and
// deduplicates identical cells through a size-bounded result store.
// All jobs report to one similarity-classification engine, whose
// counters Classifier exposes; classification itself keeps no state.
//
// The package is the server half of provmarkd; the HTTP surface lives
// in server.go and the client vocabulary in internal/wire.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/provmark"
	"provmark/internal/wire"
)

// ErrBadSpec wraps every job-spec validation failure, so transports
// can map it to a client error (HTTP 400) rather than a server fault.
var ErrBadSpec = errors.New("invalid job spec")

// ErrClosed is returned by Submit after the manager has shut down.
var ErrClosed = errors.New("jobs: manager closed")

// Config configures a Manager.
type Config struct {
	// Workers bounds how many cells run concurrently across ALL jobs;
	// values < 1 use GOMAXPROCS.
	Workers int
	// StoreSize bounds the shared dedup store; values < 1 use
	// DefaultStoreSize.
	StoreSize int
	// MaxJobs bounds how many jobs the manager retains; values < 1 use
	// DefaultMaxJobs. When a new submission exceeds the bound, the
	// oldest FINISHED jobs (and their per-cell result payloads) are
	// dropped — running jobs are never evicted, and the dedup store
	// keeps cell results independently. Status/stream lookups on an
	// evicted job answer 404.
	MaxJobs int
}

// DefaultMaxJobs bounds retained jobs when Config.MaxJobs is unset.
const DefaultMaxJobs = 256

// Manager owns the cell pool, the dedup store, the shared
// classification engine, the query counters, and the set of live jobs.
type Manager struct {
	pool    *provmark.Pool
	cls     *provmark.Classifier
	store   *Store
	queries queryCounters

	//provmark:allow ctx-in-struct -- manager-lifetime root context, cancelled in Close
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // submission order, for listings and eviction
	maxJobs int
	seq     int
	closed  bool
}

// NewManager returns a job manager whose jobs share one pool of
// cfg.Workers cell slots.
func NewManager(cfg Config) *Manager {
	//provmark:allow ctx-background -- the manager is the process-lifetime root; there is no caller context
	ctx, cancel := context.WithCancel(context.Background())
	maxJobs := cfg.MaxJobs
	if maxJobs < 1 {
		maxJobs = DefaultMaxJobs
	}
	return &Manager{
		pool:       provmark.NewPool(cfg.Workers),
		cls:        provmark.NewClassifier(),
		store:      NewStore(cfg.StoreSize),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		maxJobs:    maxJobs,
	}
}

// Workers reports how many cells run concurrently across all jobs.
func (m *Manager) Workers() int { return m.pool.Workers() }

// Store exposes the shared dedup store (read-mostly: stats, peeks).
func (m *Manager) Store() *Store { return m.store }

// Classifier exposes the similarity engine every cell reports its
// classification counters to.
func (m *Manager) Classifier() *provmark.Classifier { return m.cls }

// Job looks a live job up by id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// JobStateCounts tallies retained jobs by wire state.
type JobStateCounts struct {
	Total    int `json:"total"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Canceled int `json:"canceled"`
}

// JobStates counts the manager's retained jobs by state — the job half
// of the /v1/stats surface.
func (m *Manager) JobStates() JobStateCounts {
	var c JobStateCounts
	for _, j := range m.Jobs() {
		c.Total++
		switch j.Status().State {
		case wire.JobRunning:
			c.Running++
		case wire.JobDone:
			c.Done++
		case wire.JobCanceled:
			c.Canceled++
		}
	}
	return c
}

// Jobs lists all jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Close cancels every job and waits for them to settle. Submit fails
// with ErrClosed afterwards.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	jobs := make([]*Job, 0, len(m.jobs))
	//provmark:allow map-order -- collection order is irrelevant: Close only waits on every job
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	m.baseCancel()
	for _, j := range jobs {
		<-j.Done()
	}
}

// Submit validates a spec, expands it into cells (tool-major, the
// Matrix grid order), registers the job, and starts running its cells
// on the shared pool. It returns as soon as the job is queued.
func (m *Manager) Submit(spec *wire.JobSpec) (*Job, error) {
	if spec == nil {
		return nil, fmt.Errorf("%w: nil spec", ErrBadSpec)
	}
	if len(spec.Tools) == 0 {
		return nil, fmt.Errorf("%w: no tools", ErrBadSpec)
	}
	progs, err := resolveBenchmarks(spec.Benchmarks, len(spec.Scenarios) > 0)
	if err != nil {
		return nil, err
	}
	taken := make(map[string]bool, len(progs))
	for _, p := range progs {
		taken[p.Name] = true
	}
	inline, err := resolveScenarios(spec.Scenarios, taken)
	if err != nil {
		return nil, err
	}
	bgPair, err := parseExtreme(spec.BGPair)
	if err != nil {
		return nil, fmt.Errorf("%w: bg_pair: %v", ErrBadSpec, err)
	}
	fgPair, err := parseExtreme(spec.FGPair)
	if err != nil {
		return nil, fmt.Errorf("%w: fg_pair: %v", ErrBadSpec, err)
	}
	copts := capture.Options{}
	if spec.Capture != nil {
		copts = capture.Options{Fast: spec.Capture.Fast, Params: spec.Capture.Params}
	}
	recs := make([]capture.RecorderContext, len(spec.Tools))
	for i, tool := range spec.Tools {
		rec, err := capture.OpenContext(tool, copts)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		recs[i] = rec
	}

	pipeline := []provmark.Option{
		provmark.WithClassifier(m.cls),
		provmark.WithTrials(spec.Trials),
		provmark.WithParallelism(spec.Parallelism),
		provmark.WithPairExtremes(bgPair, fgPair),
	}
	if spec.FilterGraphs != nil {
		pipeline = append(pipeline, provmark.WithFilterGraphs(*spec.FilterGraphs))
	}

	cells := make([]cell, 0, len(spec.Tools)*(len(progs)+len(inline)))
	for ti, tool := range spec.Tools {
		for _, prog := range progs {
			cells = append(cells, cell{
				tool: tool,
				rec:  recs[ti],
				prog: prog,
				key:  cellKey(tool, prog.Name, spec, ""),
			})
		}
		// Inline scenario cells hash the canonical scenario content
		// (which includes the name) into their dedup key: jobs
		// submitting the identical scenario share a stored result,
		// however its JSON was formatted, and a name collision with a
		// built-in benchmark cannot alias the built-in's cache.
		for _, sc := range inline {
			cells = append(cells, cell{
				tool: tool,
				rec:  recs[ti],
				prog: sc.prog,
				key:  cellKey(tool, sc.prog.Name, spec, string(sc.canonical)),
			})
		}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.seq++
	id := fmt.Sprintf("j%d", m.seq)
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		id:       id,
		m:        m,
		cells:    cells,
		cellDone: make([]bool, len(cells)),
		pipeline: pipeline,
		ctx:      ctx,
		cancel:   cancel,
		state:    wire.JobRunning,
		update:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.evictLocked()
	m.mu.Unlock()
	go j.run()
	return j, nil
}

// evictLocked drops the oldest finished jobs while the retention bound
// is exceeded, releasing their per-cell result payloads. Unfinished
// jobs are skipped: the bound limits history, never live work. Callers
// hold m.mu.
func (m *Manager) evictLocked() {
	if len(m.jobs) <= m.maxJobs {
		return
	}
	kept := m.order[:0]
	for i, id := range m.order {
		if len(m.jobs) > m.maxJobs && m.jobs[id].isFinished() {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, m.order[i])
	}
	m.order = kept
}

// resolveBenchmarks maps benchmark names to programs; an empty list
// selects the whole Table 1 suite, unless the spec carries inline
// scenarios — a scenario-only job runs just its scenarios.
func resolveBenchmarks(names []string, hasScenarios bool) ([]benchprog.Program, error) {
	if len(names) == 0 {
		if hasScenarios {
			return nil, nil
		}
		names = benchprog.Names()
	}
	progs := make([]benchprog.Program, 0, len(names))
	for _, name := range names {
		prog, ok := benchprog.ByName(name)
		if !ok {
			return nil, fmt.Errorf("%w: unknown benchmark %q", ErrBadSpec, name)
		}
		progs = append(progs, prog)
	}
	return progs, nil
}

// inlineScenario is one resolved inline scenario: its compiled program
// and the canonical encoding its dedup key hashes.
type inlineScenario struct {
	prog      benchprog.Program
	canonical []byte
}

// resolveScenarios validates, canonically encodes, and compiles a
// spec's inline scenarios. Names already taken — by another scenario
// or by a named benchmark of the same job — are rejected: a job's
// cells must stay distinguishable by (tool, name), and name-keyed
// consumers (the batch regression store) must never see two different
// programs under one label.
func resolveScenarios(scns []benchprog.Scenario, taken map[string]bool) ([]inlineScenario, error) {
	if len(scns) == 0 {
		return nil, nil
	}
	out := make([]inlineScenario, 0, len(scns))
	for i := range scns {
		s := scns[i]
		data, err := benchprog.EncodeScenario(&s)
		if err != nil {
			return nil, fmt.Errorf("%w: scenario %d: %v", ErrBadSpec, i, err)
		}
		prog, err := s.Compile()
		if err != nil {
			return nil, fmt.Errorf("%w: scenario %d: %v", ErrBadSpec, i, err)
		}
		if taken[prog.Name] {
			return nil, fmt.Errorf("%w: scenario name %q already names another cell of this job", ErrBadSpec, prog.Name)
		}
		taken[prog.Name] = true
		out = append(out, inlineScenario{prog: prog, canonical: data})
	}
	return out, nil
}

func parseExtreme(s string) (provmark.Extreme, error) {
	switch s {
	case "":
		return 0, nil
	case "smallest":
		return provmark.Smallest, nil
	case "largest":
		return provmark.Largest, nil
	}
	return 0, fmt.Errorf("unknown pair extreme %q (want smallest or largest)", s)
}

// cellKeyData is the canonical identity of one cell: everything in the
// spec that can change the cell's result. Parallelism is deliberately
// absent — it affects wall-clock, not outcomes — so runs differing
// only in concurrency share cached results.
type cellKeyData struct {
	Schema       int               `json:"schema"`
	Tool         string            `json:"tool"`
	Benchmark    string            `json:"benchmark"`
	Fast         bool              `json:"fast"`
	Params       map[string]string `json:"params,omitempty"`
	Trials       int               `json:"trials"`
	FilterGraphs *bool             `json:"filter_graphs,omitempty"`
	BGPair       string            `json:"bg_pair,omitempty"`
	FGPair       string            `json:"fg_pair,omitempty"`
	// Scenario carries the canonical JSON of an inline scenario, so the
	// key identifies scenario *content*: a registered benchmark and an
	// inline scenario sharing a name never share a key, while identical
	// inline scenarios dedup across jobs regardless of how they were
	// authored (the codec canonicalizes before hashing).
	Scenario string `json:"scenario,omitempty"`
}

// cellKey derives the dedup key of a (tool, benchmark, options) cell:
// the hex SHA-256 of the canonical JSON identity (map keys sorted by
// encoding/json), truncated to 128 bits. scenario is the canonical
// encoding of an inline scenario cell, empty for named benchmarks.
func cellKey(tool, benchmark string, spec *wire.JobSpec, scenario string) string {
	d := cellKeyData{
		Schema:       wire.SchemaVersion,
		Tool:         tool,
		Benchmark:    benchmark,
		Trials:       spec.Trials,
		FilterGraphs: spec.FilterGraphs,
		BGPair:       spec.BGPair,
		FGPair:       spec.FGPair,
		Scenario:     scenario,
	}
	if spec.Capture != nil {
		d.Fast = spec.Capture.Fast
		d.Params = spec.Capture.Params
	}
	data, err := json.Marshal(d)
	if err != nil {
		// A map[string]string cannot fail to marshal; keep the
		// compiler honest anyway.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}
