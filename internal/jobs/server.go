package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"

	"provmark/internal/capture"
	"provmark/internal/httpmw"
	"provmark/internal/wire"
)

// maxBodyBytes bounds any request body (POST /v1/jobs, POST
// /v1/query): the chain's BodyLimit layer installs the cap and the
// handlers map an overrun to 413 Request Entity Too Large.
const maxBodyBytes = 1 << 20

// serverConfig collects the middleware knobs NewServer accepts as
// functional options. The zero value serves the observability chain
// (recover, request IDs, access logs, metrics, body cap) with every
// policy layer — auth, rate limiting, quotas — disabled.
type serverConfig struct {
	authToken string
	rate      float64
	burst     int
	quota     int64
	logger    *slog.Logger
}

// ServerOption configures NewServer.
type ServerOption func(*serverConfig)

// WithAuthToken requires the static bearer token on every request
// except GET /healthz. An empty token leaves auth disabled.
func WithAuthToken(token string) ServerOption {
	return func(c *serverConfig) { c.authToken = token }
}

// WithRateLimit enforces a per-session token bucket: rate requests per
// second steady state, burst requests back to back. rate <= 0 leaves
// rate limiting disabled.
func WithRateLimit(rate float64, burst int) ServerOption {
	return func(c *serverConfig) { c.rate, c.burst = rate, burst }
}

// WithSessionQuota caps each session's lifetime request count; 0
// leaves quotas disabled.
func WithSessionQuota(n int64) ServerOption {
	return func(c *serverConfig) { c.quota = n }
}

// WithLogger routes access logs and panic reports through logger
// (structured, via log/slog). Nil — the default — discards them.
func WithLogger(logger *slog.Logger) ServerOption {
	return func(c *serverConfig) { c.logger = logger }
}

// NewServer builds the HTTP surface of provmarkd over a manager:
//
//	POST /v1/jobs                submit a wire.JobSpec, returns wire.JobStatus
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/stream    NDJSON of wire.MatrixResult as cells complete
//	GET  /v1/results/{cell}      a stored cell result by dedup key
//	POST /v1/query               evaluate Datalog rules against a stored cell
//	GET  /v1/stats               store + query counters, retained jobs by state
//	GET  /metrics                Prometheus text exposition
//	GET  /healthz                liveness + registered backends
//
// The mux is wrapped in the httpmw chain (Recover < RequestID <
// AccessLog < Metrics [< Auth < RateLimit < Quota] < BodyLimit), with
// the bracketed policy layers present only when the matching option
// enables them. GET /healthz is exempt from auth, rate limiting, and
// quotas (liveness probes carry no credential); GET /metrics is
// exempt from rate limiting and quotas but not auth, so scrapes never
// consume application budget yet stay credentialed. Chain assembly is
// order-validated — a misordered layer list is a startup error, never
// a silently scrambled policy stack.
//
// A stream client owns its job: disconnecting mid-stream cancels the
// job and releases its workers, unless the stream was opened with
// ?detach=1 (a passive observer). The chain's response wrappers
// preserve http.Flusher, so per-cell flushing — and with it disconnect
// detection — survives the full middleware stack.
func NewServer(m *Manager, opts ...ServerOption) (http.Handler, error) {
	var cfg serverConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	sessions := httpmw.NewSessionStore(httpmw.SessionConfig{
		Rate:  cfg.rate,
		Burst: cfg.burst,
		Quota: cfg.quota,
	})
	metrics := httpmw.NewMetrics("provmarkd")
	registerServiceMetrics(metrics, m, sessions)

	s := &server{m: m}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.job)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.stream)
	mux.HandleFunc("GET /v1/results/{cell}", s.result)
	mux.HandleFunc("POST /v1/query", s.query)
	mux.HandleFunc("GET /v1/stats", s.stats)
	mux.Handle("GET /metrics", metrics.Handler())
	mux.HandleFunc("GET /healthz", s.health)

	// Route labels for logs and metrics are the matched mux patterns
	// ("POST /v1/jobs"), resolved without serving; unmatched requests
	// share one label so hostile paths cannot explode the cardinality.
	route := func(r *http.Request) string {
		_, pattern := mux.Handler(r)
		return pattern
	}

	layers := []httpmw.Layer{
		httpmw.RecoverLayer(cfg.logger),
		httpmw.RequestIDLayer(),
		httpmw.AccessLogLayer(cfg.logger, route, sessions.Key),
		httpmw.MetricsLayer(metrics, route),
	}
	if cfg.authToken != "" {
		layers = append(layers, httpmw.AuthLayer(cfg.authToken, "/healthz"))
	}
	if cfg.rate > 0 {
		layers = append(layers, httpmw.RateLimitLayer(sessions, "/healthz", "/metrics"))
	}
	if cfg.quota > 0 {
		layers = append(layers, httpmw.QuotaLayer(sessions, "/healthz", "/metrics"))
	}
	layers = append(layers, httpmw.BodyLimitLayer(maxBodyBytes))
	chain, err := httpmw.NewChain(layers...)
	if err != nil {
		return nil, err
	}
	return chain.Then(mux), nil
}

// registerServiceMetrics re-exports the manager's existing counters —
// dedup store, query traffic, retained jobs by state — plus the
// session store's session count and rejection tallies, so one scrape
// of GET /metrics sees the whole service.
func registerServiceMetrics(metrics *httpmw.Metrics, m *Manager, sessions *httpmw.SessionStore) {
	counters := []struct {
		name, help string
		fn         func() float64
	}{
		{"provmarkd_rate_limit_rejections_total", "Requests rejected by the per-session token bucket.",
			func() float64 { return float64(sessions.RateRejections()) }},
		{"provmarkd_quota_rejections_total", "Requests rejected by an exhausted session quota.",
			func() float64 { return float64(sessions.QuotaRejections()) }},
		{"provmarkd_store_hits_total", "Dedup result store hits.",
			func() float64 { return float64(m.Store().Stats().Hits) }},
		{"provmarkd_store_misses_total", "Dedup result store misses.",
			func() float64 { return float64(m.Store().Stats().Misses) }},
		{"provmarkd_store_puts_total", "Results inserted into the dedup store.",
			func() float64 { return float64(m.Store().Stats().Puts) }},
		{"provmarkd_store_evictions_total", "Results evicted from the dedup store.",
			func() float64 { return float64(m.Store().Stats().Evictions) }},
		{"provmarkd_queries_total", "POST /v1/query requests.",
			func() float64 { return float64(m.QueryStats().Total) }},
		{"provmarkd_queries_matched_total", "Queries whose goal bound at least one answer.",
			func() float64 { return float64(m.QueryStats().Matched) }},
		{"provmarkd_query_errors_total", "Queries that failed between decode and evaluation.",
			func() float64 { return float64(m.QueryStats().Errors) }},
	}
	for _, c := range counters {
		metrics.RegisterFunc(c.name, c.help, "counter", c.fn)
	}
	gauges := []struct {
		name, help string
		fn         func() float64
	}{
		{"provmarkd_sessions", "Sessions currently tracked by the session store.",
			func() float64 { return float64(sessions.Len()) }},
		{"provmarkd_store_len", "Results currently in the dedup store.",
			func() float64 { return float64(m.Store().Len()) }},
		{"provmarkd_jobs_running", "Retained jobs currently running.",
			func() float64 { return float64(m.JobStates().Running) }},
		{"provmarkd_jobs_done", "Retained jobs that finished.",
			func() float64 { return float64(m.JobStates().Done) }},
		{"provmarkd_jobs_canceled", "Retained jobs that were canceled.",
			func() float64 { return float64(m.JobStates().Canceled) }},
	}
	for _, g := range gauges {
		metrics.RegisterFunc(g.name, g.help, "gauge", g.fn)
	}
}

type server struct {
	m *Manager
}

// readBody drains a capped request body, distinguishing an oversized
// body (413 — the client must shrink it, retrying is pointless) from
// an unreadable one (400). A zero status means success.
func readBody(w http.ResponseWriter, r *http.Request) (data []byte, status int, msg string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)
	case err != nil:
		return nil, http.StatusBadRequest, "unreadable request body"
	}
	return body, 0, ""
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	body, status, msg := readBody(w, r)
	if status != 0 {
		http.Error(w, msg, status)
		return
	}
	spec, err := wire.DecodeJobSpec(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	job, err := s.m.Submit(spec)
	switch {
	case errors.Is(err, ErrBadSpec):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusAccepted, func() ([]byte, error) {
		return wire.EncodeJobStatus(job.Status())
	})
}

func (s *server) job(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, func() ([]byte, error) {
		return wire.EncodeJobStatus(job.Status())
	})
}

func (s *server) stream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	// ?detach=1 (or true) observes without owning; absent, empty, 0 and
	// false mean owner semantics. Anything else is rejected rather than
	// guessed — a misspelt observer must not cancel someone else's job
	// on disconnect.
	detach := false
	if v := r.URL.Query().Get("detach"); v != "" {
		var err error
		if detach, err = strconv.ParseBool(v); err != nil {
			http.Error(w, "detach must be a boolean", http.StatusBadRequest)
			return
		}
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if canFlush {
		flusher.Flush()
	}
	for cellRes := range job.Watch(r.Context()) {
		line, err := wire.EncodeMatrixResult(&cellRes)
		if err != nil {
			break
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			break
		}
		if canFlush {
			flusher.Flush()
		}
	}
	// The watch closed: either the job settled, or the client went
	// away. A vanished owner cancels the job so its cells stop
	// occupying pool workers.
	if !detach {
		select {
		case <-job.Done():
		default:
			job.Cancel()
		}
	}
}

func (s *server) result(w http.ResponseWriter, r *http.Request) {
	res, ok := s.m.Store().Peek(r.PathValue("cell"))
	if !ok {
		http.Error(w, "no stored result for cell", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, func() ([]byte, error) {
		return wire.EncodeResult(res)
	})
}

// query evaluates a Datalog program against a stored cell's
// provenance: strict wire decode, store lookup by dedup key, then
// rule evaluation on the semi-naive engine. Every request lands in
// the query counters /v1/stats reports.
func (s *server) query(w http.ResponseWriter, r *http.Request) {
	fail := func(status int, msg string) {
		s.m.queries.record(false, true)
		http.Error(w, msg, status)
	}
	body, status, msg := readBody(w, r)
	if status != 0 {
		fail(status, msg)
		return
	}
	req, err := wire.DecodeQueryRequest(body)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	res, ok := s.m.Store().Peek(req.Cell)
	if !ok {
		fail(http.StatusNotFound, "no stored result for cell")
		return
	}
	resp, err := EvalQuery(req, res)
	var rejected *RejectedQueryError
	if errors.As(err, &rejected) {
		// Analysis rejections carry structured diagnostics: a 422 with
		// a full wire response body instead of a plain-text error.
		s.m.queries.record(false, true)
		writeJSON(w, http.StatusUnprocessableEntity, func() ([]byte, error) {
			return wire.EncodeQueryResponse(rejected.Response)
		})
		return
	}
	if err != nil {
		fail(http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.m.queries.record(resp.Matches > 0, false)
	writeJSON(w, http.StatusOK, func() ([]byte, error) {
		return wire.EncodeQueryResponse(resp)
	})
}

// statsResponse is the GET /v1/stats document: the shared result
// store's traffic counters, the query counters, and the retained jobs
// by state. It is an operator surface, versioned like every /v1
// response.
type statsResponse struct {
	Schema int `json:"schema"`
	Store  struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Puts      int64 `json:"puts"`
		Evictions int64 `json:"evictions"`
		Len       int   `json:"len"`
	} `json:"store"`
	Queries QueryStats     `json:"queries"`
	Jobs    JobStateCounts `json:"jobs"`
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.Schema = wire.SchemaVersion
	st := s.m.Store().Stats()
	resp.Store.Hits = st.Hits
	resp.Store.Misses = st.Misses
	resp.Store.Puts = st.Puts
	resp.Store.Evictions = st.Evictions
	resp.Store.Len = s.m.Store().Len()
	resp.Queries = s.m.QueryStats()
	resp.Jobs = s.m.JobStates()
	writeJSON(w, http.StatusOK, func() ([]byte, error) {
		return json.Marshal(&resp)
	})
}

func (s *server) health(w http.ResponseWriter, r *http.Request) {
	st := s.m.Store().Stats()
	jobs := s.m.JobStates()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","schema":%d,"backends":%d,"store":{"hits":%d,"misses":%d},"jobs":%d}`+"\n",
		wire.SchemaVersion, len(capture.Backends()), st.Hits, st.Misses, jobs.Total)
}

func writeJSON(w http.ResponseWriter, status int, encode func() ([]byte, error)) {
	data, err := encode()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}
