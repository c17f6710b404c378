package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: which layer boundary (Name),
// when it ran, the span that caused it, and the op it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
}

// tracer keeps the spans of a traced run in memory, together with the
// per-layer totals the spans and counters add up to. All methods are
// safe on a nil *tracer and then do nothing, so an untraced op calls
// the same code with tracing off.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	totals map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), totals: make(map[string]float64)}
}

// open is a span that has started but not ended.
type open struct {
	id     int64
	parent int64
	op     int
	name   string
	attr   string
	start  time.Time
}

// begin starts a span; end closes it.
func (t *tracer) begin(name string, op int, parent int64, attr string) open {
	if t == nil {
		return open{}
	}
	return open{id: t.nextID.Add(1), parent: parent, op: op, name: name, attr: attr, start: time.Now()}
}

// end closes a span opened by begin, adds its duration in ms to the
// total named after the span, and returns the span's id.
func (t *tracer) end(o open) int64 {
	if t == nil {
		return 0
	}
	t.record(o.id, o.name, o.op, o.parent, o.attr, o.start, time.Now())
	return o.id
}

// span records a span whose bounds are already known, as when a
// layer reports a duration after the fact. It returns the span's id.
func (t *tracer) span(name string, op int, parent int64, attr string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.nextID.Add(1)
	t.record(id, name, op, parent, attr, start, end)
	return id
}

func (t *tracer) record(id int64, name string, op int, parent int64, attr string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Op: op, Name: name, Attr: attr,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.totals[name] += float64(end.Sub(start)) / float64(time.Millisecond)
	t.mu.Unlock()
}

// add adds v to the named total (a counter).
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.totals[name] += v
	t.mu.Unlock()
}

// total reads a total; spans contribute their summed ms.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[name]
}

// write stores the spans as JSON lines under path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
