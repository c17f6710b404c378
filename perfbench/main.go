// Command perfbench is provmark's end-to-end benchmark. It times whole
// units of user-visible work — a Table 2 grid, a scalability sweep, a
// provmarkd job, a detection-query sweep — checks every op's output,
// and prints the metrics of one workload as a JSON line:
//
//	perfbench --workload table2 --seed 1 --seconds 30 --trace 0
//
// --trace 1 adds a traced period that times calls into each layer from
// outside and reports per-layer metrics instead. --steady N runs every
// workload N times as child processes and prints each metric's
// run-to-run spread. See README.md for the workloads and metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

var workloads = []workload{
	{name: "table2", clients: 1, setup: setupTable2},
	{name: "scale", clients: 1, setup: setupScale},
	{name: "submit", clients: 2, setup: setupSubmit},
	{name: "query", clients: 2, setup: setupQuery},
}

// setups is how many fresh set-ups a run times; setup_s is their
// median.
const setups = 5

// traceDir receives the spans of traced runs, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/trace"

// nproc bounds workers and clients.
func nproc() int { return runtime.NumCPU() }

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: table2, scale, submit or query")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced period")
	steady := flag.Int("steady", 0, "run every workload (or --workload) this many times with seeds 1..N and print each metric's spread")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *steady > 0 {
		if err := steadiness(ctx, *name, *steady, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printSummary(w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run sets the workload up several times, keeps the last set-up, and
// measures it. Untraced, the whole period is one phase. Traced, the
// first half is untraced and the second traced, so the run reports
// the tracing overhead as well.
func run(ctx context.Context, w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	var (
		s     session
		st    setupStats
		times []float64
	)
	for k := 0; k < setups; k++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		s, st, err = w.setup(ctx, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer s.close()
	runtime.GC()
	var next atomic.Int64

	if !traced {
		p := runPhase(ctx, s, w.clients, d, nil, &next)
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, p.firstErr)
		}
		return &result{
			Correct:   p.failed == 0,
			Attempted: p.attempted,
			Failed:    p.failed,
			Metrics:   endToEnd(p, median(times)),
		}, nil
	}

	base := runPhase(ctx, s, w.clients, d/2, nil, &next)
	runtime.GC()
	tr := newTracer()
	before, err := layerCounters(ctx, s)
	if err != nil {
		return nil, err
	}
	p := runPhase(ctx, s, w.clients, d/2, tr, &next)
	after, err := layerCounters(ctx, s)
	if err != nil {
		return nil, err
	}
	for k, v := range after {
		tr.add(k, v-before[k])
	}
	tr.add("benchprog.synth_ms", st.synthMS)
	tr.add("benchprog.compile_ms", st.compileMS)
	for _, q := range []phase{base, p} {
		if q.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, q.firstErr)
		}
	}
	ops := float64(max(p.attempted, 1))
	metrics := make(map[string]metric, len(layerMetrics)+1)
	for _, lm := range layerMetrics {
		metrics[lm.name] = metric{lm.value(tr, ops), lm.unit}
	}
	metrics["trace.overhead_ratio"] = metric{ratio(p.opsPerSec(), base.opsPerSec()), "ratio"}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %s (%d ops traced)\n", path, p.attempted)
	return &result{
		Correct:   base.failed == 0 && p.failed == 0,
		Attempted: base.attempted + p.attempted,
		Failed:    base.failed + p.failed,
		Metrics:   metrics,
	}, nil
}

// layerCounters merges the process-wide counters with the session's.
func layerCounters(ctx context.Context, s session) (map[string]float64, error) {
	out := globalCounters()
	sc, err := s.counters(ctx)
	if err != nil {
		return nil, err
	}
	for k, v := range sc {
		out[k] = v
	}
	return out, nil
}

// printSummary prints the metrics for a reader, ahead of the JSON
// line: the op count the percentiles rest on and the error ratio.
func printSummary(name string, res *result) {
	fmt.Printf("workload %s: %d ops, %d failed, error_ratio %g\n",
		name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Printf("  %-34s %14.4f %s\n", k, m.Value, m.Unit)
	}
}
