package jobs

import (
	"context"
	"sync"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/provmark"
	"provmark/internal/wire"
)

// cell is one (tool, benchmark) unit of a job's grid.
type cell struct {
	tool string
	rec  capture.RecorderContext
	prog benchprog.Program
	key  string
}

// Job is one submitted matrix run. Cells execute on the manager's
// shared pool; completed cells accumulate in completion order and are
// observable live through Watch. Cancel (or manager shutdown) aborts
// outstanding cells via context.
type Job struct {
	id       string
	m        *Manager
	cells    []cell
	pipeline []provmark.Option
	//provmark:allow ctx-in-struct -- job lifetime context: cancellation must outlive the creating request
	ctx    context.Context
	cancel context.CancelFunc

	mu                sync.Mutex
	results           []wire.MatrixResult // completion order
	cellDone          []bool              // indexed like cells
	update            chan struct{}       // closed and replaced on every append
	completed, failed int
	finished          bool
	state             string
	done              chan struct{}
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Cancel aborts the job: in-flight cells stop at their next context
// check and report context errors; unclaimed cells never start.
func (j *Job) Cancel() { j.cancel() }

// Done is closed when every started cell has reported and the job has
// settled into a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// isFinished reports whether the job has settled (used by the
// manager's retention eviction).
func (j *Job) isFinished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// Canceled is closed as soon as the job's context is canceled —
// before in-flight cells have unwound (Done marks that). Watchers use
// it to distinguish "stopping" from "stopped".
func (j *Job) Canceled() <-chan struct{} { return j.ctx.Done() }

// run executes the job's cells on the manager's shared pool, then
// settles the job once every claimed cell has reported.
func (j *Job) run() {
	j.m.pool.Each(j.ctx, len(j.cells), j.runCell)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = true
	if j.ctx.Err() != nil {
		j.state = wire.JobCanceled
	} else {
		j.state = wire.JobDone
	}
	j.cancel() // release the job's context resources in every path
	close(j.done)
	close(j.update) // wake watchers blocked on the current update epoch
}

// runCell executes one cell on a pool slot: serve from the dedup
// store on a key hit, otherwise run the pipeline and store the result.
func (j *Job) runCell(i int) {
	c := &j.cells[i]
	out := wire.MatrixResult{
		Schema:    wire.SchemaVersion,
		Index:     i,
		Tool:      c.tool,
		Benchmark: c.prog.Name,
		Cell:      c.key,
	}
	if err := j.ctx.Err(); err != nil {
		out.Err = err.Error()
		j.report(out)
		return
	}
	if res, ok := j.m.store.Get(c.key); ok {
		out.Cached = true
		out.Result = res
		j.report(out)
		return
	}
	res, err := provmark.NewContext(c.rec, j.pipeline...).RunContext(j.ctx, c.prog)
	if err != nil {
		out.Err = err.Error()
		j.report(out)
		return
	}
	w := provmark.ToWire(res)
	j.m.store.Put(c.key, w)
	out.Result = w
	j.report(out)
}

// report appends a completed cell and wakes watchers.
func (j *Job) report(r wire.MatrixResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results = append(j.results, r)
	if r.Err != "" {
		j.failed++
	} else {
		j.completed++
	}
	j.cellDone[r.Index] = true
	close(j.update)
	j.update = make(chan struct{})
}

// Status snapshots the job's externally visible state in wire form.
func (j *Job) Status() *wire.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	cells := make([]wire.CellRef, len(j.cells))
	for i, c := range j.cells {
		cells[i] = wire.CellRef{
			Cell:      c.key,
			Tool:      c.tool,
			Benchmark: c.prog.Name,
			Done:      j.cellDone[i],
		}
	}
	return &wire.JobStatus{
		Schema:    wire.SchemaVersion,
		ID:        j.id,
		State:     j.state,
		Total:     len(j.cells),
		Completed: j.completed,
		Failed:    j.failed,
		Cells:     cells,
	}
}

// Watch returns a channel that replays the job's completed cells and
// then follows new completions live; it closes when the job settles or
// ctx is done. Multiple watchers are independent.
func (j *Job) Watch(ctx context.Context) <-chan wire.MatrixResult {
	out := make(chan wire.MatrixResult)
	go func() {
		defer close(out)
		next := 0
		for {
			j.mu.Lock()
			for next < len(j.results) {
				r := j.results[next]
				next++
				j.mu.Unlock()
				select {
				case out <- r:
				case <-ctx.Done():
					return
				}
				j.mu.Lock()
			}
			if j.finished {
				j.mu.Unlock()
				return
			}
			upd := j.update
			j.mu.Unlock()
			select {
			case <-upd:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
