package jobs_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/capture/spade"
	"provmark/internal/jobs"
	"provmark/internal/jobs/client"
	"provmark/internal/provmark"
	"provmark/internal/wire"
)

// recordCalls counts Record invocations through the jobstest-counting
// backend, so tests can assert a deduplicated job re-records nothing.
var recordCalls atomic.Int64

// gate coordinates the jobstest-gate backend: each Record signals
// started, then blocks until the test releases it. The channels are
// re-created per test run (go test -count>1 reuses package state).
var gate = struct {
	mu      sync.Mutex
	started chan struct{}
	release chan struct{}
}{started: make(chan struct{}, 64), release: make(chan struct{})}

func resetGate() (started, release chan struct{}) {
	gate.mu.Lock()
	defer gate.mu.Unlock()
	gate.started = make(chan struct{}, 64)
	gate.release = make(chan struct{})
	return gate.started, gate.release
}

func gateChans() (started, release chan struct{}) {
	gate.mu.Lock()
	defer gate.mu.Unlock()
	return gate.started, gate.release
}

type countingRecorder struct{ capture.Recorder }

func (c countingRecorder) Record(prog benchprog.Program, v benchprog.Variant, trial int) (capture.Native, error) {
	recordCalls.Add(1)
	return c.Recorder.Record(prog, v, trial)
}

type gatedRecorder struct{ capture.Recorder }

func (g gatedRecorder) Record(prog benchprog.Program, v benchprog.Variant, trial int) (capture.Native, error) {
	started, release := gateChans()
	started <- struct{}{}
	<-release
	return g.Recorder.Record(prog, v, trial)
}

func init() {
	capture.MustRegister("jobstest-counting", func(capture.Options) (capture.Recorder, error) {
		return countingRecorder{spade.New(spade.DefaultConfig())}, nil
	})
	capture.MustRegister("jobstest-gate", func(capture.Options) (capture.Recorder, error) {
		return gatedRecorder{spade.New(spade.DefaultConfig())}, nil
	})
}

// newTestServer wraps a manager in the (chain-validated) HTTP surface
// and an httptest server. Options pass through to jobs.NewServer, so
// middleware e2e tests build servers with auth/rate/quota enabled.
func newTestServer(t *testing.T, m *jobs.Manager, opts ...jobs.ServerOption) *httptest.Server {
	t.Helper()
	h, err := jobs.NewServer(m, opts...)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// TestServiceEndToEnd is the acceptance flow: submit a multi-cell
// matrix job over HTTP, stream its NDJSON cells, decode them through
// internal/wire, check Render(..., JSON) is byte-identical for every
// streamed Result, then submit the identical job again and observe it
// served entirely from the dedup store without re-recording.
func TestServiceEndToEnd(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 4, StoreSize: 64})
	defer m.Close()
	ts := newTestServer(t, m)

	spec := `{"tools":["jobstest-counting"],"benchmarks":["creat","open"],"trials":2,"capture":{"fast":true}}`
	const wantCells = 2

	// Submit over HTTP.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	status, err := wire.DecodeJobStatus(bytes.TrimSpace(body))
	if err != nil {
		t.Fatalf("submit response does not strict-decode: %v\n%s", err, body)
	}
	if status.Total != wantCells || len(status.Cells) != wantCells {
		t.Fatalf("job status = %+v, want %d cells", status, wantCells)
	}

	// Stream the NDJSON cells and decode each line via the wire schema.
	cells := streamCells(t, ts.URL, status.ID)
	if len(cells) != wantCells {
		t.Fatalf("streamed %d cells, want %d", len(cells), wantCells)
	}
	recordsAfterFirst := recordCalls.Load()
	if recordsAfterFirst == 0 {
		t.Fatal("first job recorded nothing")
	}
	seen := map[string]bool{}
	for _, cell := range cells {
		if cell.Err != "" {
			t.Fatalf("cell %s/%s failed: %s", cell.Tool, cell.Benchmark, cell.Err)
		}
		if cell.Cached {
			t.Errorf("first run of cell %s served from store", cell.Benchmark)
		}
		seen[cell.Benchmark] = true

		// Byte-identical rendering: decoding the streamed Result and
		// re-rendering it as JSON must reproduce the wire bytes.
		enc, err := wire.EncodeResult(cell.Result)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*wire.Graph{cell.Result.Target, cell.Result.FG, cell.Result.BG} {
			if _, err := g.Build(); err != nil {
				t.Fatalf("streamed result does not materialize: %v", err)
			}
		}
		if got, want := provmark.Render(cell.Result, provmark.JSON), string(enc)+"\n"; got != want {
			t.Errorf("Render(JSON) diverges from streamed wire bytes for %s:\n%s\nvs\n%s", cell.Benchmark, got, want)
		}

		// The per-cell result endpoint serves the stored wire form.
		stored := getOK(t, ts.URL+"/v1/results/"+cell.Cell)
		if !bytes.Equal(bytes.TrimSpace(stored), enc) {
			t.Errorf("stored cell %s differs from streamed cell", cell.Cell)
		}
	}
	if !seen["creat"] || !seen["open"] {
		t.Fatalf("missing benchmarks in stream: %v", seen)
	}

	// Job settles as done.
	final, err := wire.DecodeJobStatus(bytes.TrimSpace(getOK(t, ts.URL+"/v1/jobs/"+status.ID)))
	if err != nil {
		t.Fatal(err)
	}
	if final.State != wire.JobDone || final.Completed != wantCells || final.Failed != 0 {
		t.Fatalf("final status = %+v", final)
	}

	// A second identical job must be served from the dedup store:
	// every cell cached, the hit counter up by the cell count, and no
	// new Record calls. Exercise the client package for this leg.
	hitsBefore := m.Store().Stats().Hits
	c := client.New(ts.URL, nil)
	var cached int
	status2, err := c.Run(context.Background(), &wire.JobSpec{
		Tools:      []string{"jobstest-counting"},
		Benchmarks: []string{"creat", "open"},
		Trials:     2,
		Capture:    &wire.CaptureOptions{Fast: true},
	}, func(cell *wire.MatrixResult) error {
		if cell.Cached {
			cached++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if status2.State != wire.JobDone {
		t.Fatalf("second job state = %s", status2.State)
	}
	if cached != wantCells {
		t.Errorf("second job served %d/%d cells from store", cached, wantCells)
	}
	if hits := m.Store().Stats().Hits - hitsBefore; hits != wantCells {
		t.Errorf("store hits moved by %d, want %d", hits, wantCells)
	}
	if got := recordCalls.Load(); got != recordsAfterFirst {
		t.Errorf("second job re-recorded: %d calls after first, %d after second", recordsAfterFirst, got)
	}
}

// TestManagerEvictsFinishedJobs: retention is bounded — submitting
// past MaxJobs drops the oldest finished job (and its payloads) while
// the dedup store keeps serving its cells.
func TestManagerEvictsFinishedJobs(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 2, MaxJobs: 2})
	defer m.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := m.Submit(&wire.JobSpec{Tools: []string{"spade"}, Benchmarks: []string{"creat"}, Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(15 * time.Second):
			t.Fatal("job never finished")
		}
		ids = append(ids, j.ID())
	}
	if _, ok := m.Job(ids[0]); ok {
		t.Error("oldest finished job not evicted past MaxJobs")
	}
	for _, id := range ids[1:] {
		if _, ok := m.Job(id); !ok {
			t.Errorf("job %s evicted while within the retention bound", id)
		}
	}
	if got := len(m.Jobs()); got != 2 {
		t.Errorf("retained %d jobs, want 2", got)
	}
}

// TestWorkersBoundAcrossJobs: Workers bounds cells in flight across
// all jobs, not per job — two concurrent 3-cell jobs on a 2-slot
// manager never have a third cell recording.
func TestWorkersBoundAcrossJobs(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 2})
	defer m.Close()
	gateStarted, gateRelease := resetGate()
	// Gated recordings ignore cancellation: open the gate before Close
	// on every path, or a failed check would hang in Close.
	release := sync.OnceFunc(func() { close(gateRelease) })
	defer release()

	var submitted []*jobs.Job
	for _, benches := range [][]string{{"creat", "open", "close"}, {"rename", "write", "unlink"}} {
		j, err := m.Submit(&wire.JobSpec{Tools: []string{"jobstest-gate"}, Benchmarks: benches, Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, j)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-gateStarted:
		case <-time.After(10 * time.Second):
			t.Fatal("cells never reached the recorder")
		}
	}
	select {
	case <-gateStarted:
		t.Fatal("a third cell started recording on a 2-slot manager")
	case <-time.After(100 * time.Millisecond):
	}

	release()
	for _, j := range submitted {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s never finished", j.ID())
		}
		st := j.Status()
		if st.State != wire.JobDone || st.Completed != 3 || st.Failed != 0 {
			t.Errorf("job %s = %s, %d completed, %d failed; want done with 3 completed", j.ID(), st.State, st.Completed, st.Failed)
		}
	}
}

// TestServerRejectsBadSpecs maps spec validation onto HTTP 400.
func TestServerRejectsBadSpecs(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1})
	defer m.Close()
	ts := newTestServer(t, m)
	bad := []string{
		`{"benchmarks":["creat"]}`,                  // no tools
		`{"tools":["no-such-tool"]}`,                // unknown backend
		`{"tools":["spade"],"benchmarks":["nope"]}`, // unknown benchmark
		`{"tools":["spade"],"bg_pair":"widest"}`,    // bad extreme
		`{"tools":["spade"],"unknown_field":true}`,  // strict decode
		`not json`,                       //
		`{"tools":["spade"],"schema":9}`, // wrong version
	}
	for _, spec := range bad {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %s, want 400", spec, resp.Status)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/j99"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: status %s, want 404", resp.Status)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/results/unknowncell"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown cell: status %s, want 404", resp.Status)
		}
	}
}

// TestStreamDisconnectCancelsJob covers streaming under cancellation:
// a client that vanishes mid-stream must cancel the job, release its
// pool workers, and leave no goroutines behind.
func TestStreamDisconnectCancelsJob(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 2})
	defer m.Close()
	ts := newTestServer(t, m)

	gateStarted, gateRelease := resetGate()
	baseline := runtime.NumGoroutine()

	// Submit a job whose recordings block on the gate.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"tools":["jobstest-gate"],"benchmarks":["creat","open","close"],"trials":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	status, err := wire.DecodeJobStatus(bytes.TrimSpace(body))
	if err != nil {
		t.Fatal(err)
	}
	job, ok := m.Job(status.ID)
	if !ok {
		t.Fatal("job not registered")
	}

	// Both pool workers enter blocked recordings.
	for i := 0; i < 2; i++ {
		select {
		case <-gateStarted:
		case <-time.After(10 * time.Second):
			t.Fatal("workers never reached the recorder")
		}
	}

	// Open the stream, then vanish mid-stream.
	streamCtx, cancelStream := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(streamCtx, http.MethodGet, ts.URL+"/v1/jobs/"+status.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	streamResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if streamResp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", streamResp.Status)
	}
	cancelStream()
	io.Copy(io.Discard, streamResp.Body)
	streamResp.Body.Close()

	// The server notices the vanished stream owner and cancels the job
	// while its recordings are still blocked on the gate.
	select {
	case <-job.Canceled():
	case <-time.After(10 * time.Second):
		t.Fatal("stream disconnect did not cancel the job")
	}

	// Only then unblock the recorder so the legacy Record calls can
	// return; the pipeline observes the canceled context and aborts.
	close(gateRelease)

	select {
	case <-job.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("job never settled after stream disconnect")
	}
	final, err := wire.DecodeJobStatus(bytes.TrimSpace(getOK(t, ts.URL+"/v1/jobs/"+status.ID)))
	if err != nil {
		t.Fatal(err)
	}
	if final.State != wire.JobCanceled {
		t.Fatalf("job state = %s, want %s", final.State, wire.JobCanceled)
	}

	// Workers are back in the pool: a fresh job completes.
	c := client.New(ts.URL, nil)
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), &wire.JobSpec{
			Tools:      []string{"spade"},
			Benchmarks: []string{"creat"},
			Trials:     2,
		}, func(*wire.MatrixResult) error { return nil })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-cancel job failed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("pool workers not released after cancellation")
	}

	// No goroutine leak: the count settles back to (near) baseline
	// once idle HTTP connections are dropped.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// streamCells consumes a job's whole NDJSON stream, strict-decoding
// every line.
func streamCells(t *testing.T, base, id string) []*wire.MatrixResult {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	var out []*wire.MatrixResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 32<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		cell, err := wire.DecodeMatrixResult(line)
		if err != nil {
			t.Fatalf("stream line does not strict-decode: %v\n%s", err, line)
		}
		out = append(out, cell)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func getOK(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}
