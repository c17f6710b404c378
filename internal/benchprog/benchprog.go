// Package benchprog defines the benchmark programs of Table 1/2: one
// small program per target syscall, split — exactly as the paper's
// #ifdef TARGET convention — into background steps (prerequisites such
// as the open before a close) and target steps (the syscall under
// test). The foreground variant executes all steps; the background
// variant skips the target steps. Process start-up boilerplate (fork,
// execve, loader activity) is generated by oskernel.Launch for both
// variants and therefore cancels in the comparison stage.
//
// Every program is a declarative scenario — an instruction list over
// the kernel's syscall dispatch table (see scenario.go) — registered
// in a process-wide registry (registry.go, table2.go, attacks.go),
// serialized by a strict canonical JSON codec (codec.go), and derived
// from one another by generator combinators (generate.go). A Scenario
// compiles to a Program. The registry is the only definition of the
// programs; testdata/scenario_streams.golden pins the kernel event
// streams each registered program produces.
package benchprog

import (
	"fmt"

	"provmark/internal/oskernel"
)

// Variant selects the foreground or background build of a benchmark.
type Variant int

// Benchmark variants.
const (
	Background Variant = iota + 1
	Foreground
)

func (v Variant) String() string {
	if v == Foreground {
		return "fg"
	}
	return "bg"
}

// World is the mutable run context a step manipulates: the kernel, the
// main benchmark process, and named file descriptors carried between
// steps (the C programs' local variables).
type World struct {
	K    *oskernel.Kernel
	Main *oskernel.Process
	FD   map[string]int
	// Procs holds named child processes created by scenario
	// instructions (save_proc slots). procNames preserves creation
	// order so the implicit end-of-program exit sweep is deterministic.
	Procs     map[string]*oskernel.Process
	procNames []string
}

// Proc resolves a process slot reference: "" and "main" name the main
// benchmark process, anything else a save_proc slot.
func (w *World) Proc(name string) (*oskernel.Process, error) {
	if name == "" || name == "main" {
		return w.Main, nil
	}
	if p, ok := w.Procs[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("unknown process slot %q", name)
}

// SetProc binds a process to a named slot, recording first-bind order.
func (w *World) SetProc(name string, p *oskernel.Process) {
	if _, ok := w.Procs[name]; !ok {
		w.procNames = append(w.procNames, name)
	}
	w.Procs[name] = p
}

// Step is one statement of a benchmark program.
type Step struct {
	Target bool // wrapped in #ifdef TARGET
	Do     func(w *World) error
}

// Program is a benchmark: setup prepares the staging directory, Steps
// are the program body.
type Program struct {
	Name  string
	Group int // Table 1 group
	Desc  string
	Setup func(k *oskernel.Kernel)
	Steps []Step
	// Cred overrides the default credentials (failure-case benchmarks
	// run as an unprivileged user attempting a privileged operation).
	Cred *oskernel.Cred
}

// Run executes a variant of the program on a fresh process in the given
// kernel and returns the benchmark process. Every process still alive
// at the end exits implicitly, matching the paper's observation that
// exit cannot be benchmarked by differencing.
func Run(k *oskernel.Kernel, prog Program, v Variant) error {
	if prog.Setup != nil {
		prog.Setup(k)
	}
	cred := oskernel.Cred{UID: 1000, EUID: 1000, SUID: 1000, GID: 1000, EGID: 1000, SGID: 1000}
	if prog.Cred != nil {
		cred = *prog.Cred
	}
	main, err := k.Launch("/usr/bin/bench", []string{prog.Name, string(rune('0') + rune(v))}, cred)
	if err != nil {
		return fmt.Errorf("benchprog: %w", err)
	}
	w := &World{K: k, Main: main, FD: make(map[string]int), Procs: make(map[string]*oskernel.Process)}
	for i, s := range prog.Steps {
		if s.Target && v == Background {
			continue
		}
		if err := s.Do(w); err != nil {
			return fmt.Errorf("benchprog: %s step %d: %w", prog.Name, i, err)
		}
	}
	if w.Main.Alive {
		k.Exit(w.Main, 0)
	}
	for _, name := range w.procNames {
		if p := w.Procs[name]; p.Alive {
			k.Exit(p, 0)
		}
	}
	return nil
}
