package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"provmark/internal/asp"
	"provmark/internal/graph"
)

// session is one set-up workload, ready to issue ops.
type session interface {
	// op issues op i and waits for it to complete. parent is the op's
	// span (0 when untraced). The returned check verifies the op's
	// output; it runs after the op's latency has been taken.
	op(ctx context.Context, i int, tr *tracer, parent int64) (check func() error, err error)
	// counters snapshots cumulative per-layer counters the session can
	// read from the layers' public surfaces (store stats, /metrics).
	// The traced run reports their deltas.
	counters(ctx context.Context) (map[string]float64, error)
	close()
}

// setupStats are the set-up costs of the input-generation layer.
type setupStats struct {
	synthMS, compileMS float64
}

// workload is one named traffic mix.
type workload struct {
	name string
	// clients is the number of closed-loop clients issuing ops.
	clients int
	setup   func(ctx context.Context, seed int64) (session, setupStats, error)
}

// phase is the outcome of one measured period.
type phase struct {
	attempted, failed int
	lat               []float64 // per-op latency, ms
	wall              time.Duration
	cpu               time.Duration
	allocBytes        uint64
	// rssPeaks holds the highest RSS sampled in each rssWindow of the
	// phase, MiB.
	rssPeaks []float64
	firstErr error
}

func (p phase) okOps() int { return p.attempted - p.failed }

func (p phase) opsPerSec() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.okOps()) / p.wall.Seconds()
}

// runPhase drives the session with closed-loop clients for d: each
// client issues its next op only after the previous one completed.
// Ops issued before the deadline run to completion. Op numbers are
// drawn from next, so successive phases of one run never reuse one.
func runPhase(ctx context.Context, s session, clients int, d time.Duration, tr *tracer, next *atomic.Int64) phase {
	var (
		mu       sync.Mutex
		p        phase
		wg       sync.WaitGroup
		failures atomic.Int64
	)
	cpu0 := cpuTime()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(d)
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go sampleRSS(stopRSS, rssDone)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var firstErr error
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				o := tr.begin("op", i, 0, "")
				t0 := time.Now()
				check, err := s.op(ctx, i, tr, o.id)
				lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
				tr.end(o)
				if err == nil {
					err = check()
				}
				if err != nil {
					failures.Add(1)
					if firstErr == nil {
						firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				}
			}
			mu.Lock()
			p.lat = append(p.lat, lat...)
			if p.firstErr == nil {
				p.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	close(stopRSS)
	p.rssPeaks = <-rssDone
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.attempted = len(p.lat)
	p.failed = int(failures.Load())
	return p
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// RSS sampling: the process's resident set is read every rssEvery
// and the highest sample of each rssWindow kept. peak_rss_mib is the
// median of those window peaks — the peak RSS the workload typically
// reaches, without the run-to-run scatter of a single maximum.
const (
	rssEvery  = 5 * time.Millisecond
	rssWindow = time.Second
)

// sampleRSS samples until stop is closed, then sends the window peaks.
func sampleRSS(stop <-chan struct{}, done chan<- []float64) {
	var peaks []float64
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	windowEnd := time.Now().Add(rssWindow)
	peak := 0.0
	for {
		select {
		case <-stop:
			if len(peaks) == 0 {
				peaks = append(peaks, peak)
			}
			done <- peaks
			return
		case now := <-tick.C:
			peak = math.Max(peak, rssMiB())
			if now.After(windowEnd) {
				peaks = append(peaks, peak)
				peak = 0
				windowEnd = windowEnd.Add(rssWindow)
			}
		}
	}
}

var pageSize = float64(os.Getpagesize())

// rssMiB reads the process's current resident set size.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * pageSize / (1 << 20)
}

// percentile interpolates linearly between closest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the user-visible metrics of an untraced phase.
func endToEnd(p phase, setupS float64) map[string]metric {
	lat := append([]float64(nil), p.lat...)
	sort.Float64s(lat)
	n := float64(max(p.attempted, 1))
	return map[string]metric{
		"ops_per_s":        {p.opsPerSec(), "1/s"},
		"op_p50_ms":        {percentile(lat, 0.5), "ms"},
		"op_p90_ms":        {percentile(lat, 0.9), "ms"},
		"cpu_ms_per_op":    {float64(p.cpu) / float64(time.Millisecond) / n, "ms"},
		"alloc_kib_per_op": {float64(p.allocBytes) / 1024 / n, "KiB"},
		"peak_rss_mib":     {median(p.rssPeaks), "MiB"},
		"setup_s":          {setupS, "s"},
	}
}

// globalCounters snapshots the process-wide counters of the layers
// that keep them: ASP solves, fingerprint computations and the Go
// runtime's garbage collector.
func globalCounters() map[string]float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]float64{
		"asp.solves":          float64(asp.SolveInvocations()),
		"graph.fingerprints":  float64(graph.FingerprintComputations()),
		"runtime.gc_cycles":   float64(ms.NumGC),
		"runtime.gc_pause_ms": float64(ms.PauseTotalNs) / 1e6,
	}
}

// layerMetric maps tracer totals to one per-layer figure.
type layerMetric struct {
	name, unit string
	value      func(t *tracer, ops float64) float64
}

func perOp(key string) func(*tracer, float64) float64 {
	return func(t *tracer, ops float64) float64 { return t.total(key) / ops }
}

// perReplay normalizes by the number of ops whose queries the traced
// run replayed through the Datalog layers.
func perReplay(key string) func(*tracer, float64) float64 {
	return func(t *tracer, _ float64) float64 { return ratio(t.total(key), t.total("datalog.replays")) }
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// serverMS is a route's mean server-side latency from /metrics.
func serverMS(route string) func(*tracer, float64) float64 {
	return func(t *tracer, _ float64) float64 {
		return ratio(t.total("http.sum_ms "+route), t.total("http.count "+route))
	}
}

// layerMetrics lists every per-layer figure of a traced run, in the
// order the doc's metric map gives them. A layer a workload does not
// reach reports 0.
var layerMetrics = []layerMetric{
	{"capture.record_ms", "ms", perOp("capture.record")},
	{"capture.transform_ms", "ms", perOp("capture.transform")},
	{"capture.records", "count", perOp("capture.records")},
	{"provmark.classification_ms", "ms", perOp("provmark.classification")},
	{"provmark.generalization_self_ms", "ms", func(t *tracer, ops float64) float64 {
		return (t.total("provmark.generalization") - t.total("provmark.classification")) / ops
	}},
	{"provmark.comparison_ms", "ms", perOp("provmark.comparison")},
	{"provmark.matrix_busy_ratio", "ratio", func(t *tracer, _ float64) float64 {
		return ratio(t.total("matrix.cell_ms"), t.total("matrix.capacity_ms"))
	}},
	{"provmark.classify_confirms", "count", perOp("classifier.confirms")},
	{"provmark.classify_cache_hit_ratio", "ratio", func(t *tracer, _ float64) float64 {
		hits := t.total("classifier.cache_hits")
		return ratio(hits, hits+t.total("classifier.confirms"))
	}},
	{"asp.solves", "count", perOp("asp.solves")},
	{"graph.fingerprints", "count", perOp("graph.fingerprints")},
	{"jobs.store_hit_ratio", "ratio", func(t *tracer, _ float64) float64 {
		hits := t.total("jobs.store_hits")
		return ratio(hits, hits+t.total("jobs.store_misses"))
	}},
	{"jobs.cells", "count", perOp("jobs.cells")},
	{"jobs.submit_ms", "ms", perOp("jobs.submit")},
	{"jobs.first_cell_ms", "ms", perOp("jobs.first_cell")},
	{"jobs.stream_ms", "ms", perOp("jobs.stream")},
	{"wire.stream_kib", "KiB", func(t *tracer, ops float64) float64 {
		return t.total("wire.stream_bytes") / 1024 / ops
	}},
	{"httpmw.server_ms.submit", "ms", serverMS(routeSubmit)},
	{"httpmw.server_ms.stream", "ms", serverMS(routeStream)},
	{"httpmw.server_ms.query", "ms", serverMS(routeQuery)},
	{"analyze.check_ms", "ms", perReplay("analyze.check")},
	{"datalog.load_ms", "ms", perReplay("datalog.load")},
	{"datalog.run_ms", "ms", perReplay("datalog.run")},
	{"datalog.query_ms", "ms", perReplay("datalog.query")},
	{"datalog.join_probes", "count", perReplay("datalog.join_probes")},
	{"datalog.derived", "count", perReplay("datalog.derived")},
	{"datalog.iterations", "count", perReplay("datalog.iterations")},
	{"runtime.gc_cycles", "count", perOp("runtime.gc_cycles")},
	{"runtime.gc_pause_ms", "ms", perOp("runtime.gc_pause_ms")},
	{"benchprog.synth_ms", "ms", func(t *tracer, _ float64) float64 { return t.total("benchprog.synth_ms") }},
	{"benchprog.compile_ms", "ms", func(t *tracer, _ float64) float64 { return t.total("benchprog.compile_ms") }},
}
