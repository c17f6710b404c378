package benchprog

import (
	"fmt"
	"sort"
	"sync"
)

// Kind classifies registered scenarios.
type Kind string

// Registry kinds.
const (
	// KindTable2 marks the Table 2 benchmark suite (the default grid of
	// batch runs and jobs).
	KindTable2 Kind = "table2"
	// KindExtra marks the Section 3.1/5.2 extra programs (rename-failed,
	// privesc, readsN, scaleN).
	KindExtra Kind = "extra"
	// KindFailure marks the failure-case suite (target expected to fail).
	KindFailure Kind = "failure"
	// KindAttack marks long attack-chain scenarios (attacks.go): staged
	// intrusions whose provenance the detection rules in
	// examples/detection must flag.
	KindAttack Kind = "attack"
)

type regEntry struct {
	scn  Scenario
	kind Kind
}

// registry is the process-wide scenario registry. Registration happens
// at init (table2.go) and optionally from callers embedding custom
// suites; lookups are concurrent. The sorted metadata views are cached
// and rebuilt on registration — the fix for Names()/ByName() formerly
// rebuilding every program on every call.
var registry = struct {
	mu      sync.RWMutex
	byName  map[string]regEntry
	order   []string // registration order
	table2  []string // cached Table 2 names, group-then-name order
	failure []string // cached failure names, registration order
}{byName: make(map[string]regEntry)}

// RegisterScenario validates a scenario and adds it to the registry.
// Names are unique across kinds.
func RegisterScenario(s Scenario, kind Kind) error {
	switch kind {
	case KindTable2, KindExtra, KindFailure, KindAttack:
	default:
		return fmt.Errorf("benchprog: register %q: unknown kind %q", s.Name, kind)
	}
	v := s.Clone()
	v.normalize()
	if err := v.Validate(); err != nil {
		return fmt.Errorf("benchprog: register: %w", err)
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[v.Name]; dup {
		return fmt.Errorf("benchprog: register %q: already registered", v.Name)
	}
	registry.byName[v.Name] = regEntry{scn: v, kind: kind}
	registry.order = append(registry.order, v.Name)
	switch kind {
	case KindTable2:
		registry.table2 = append(registry.table2, v.Name)
		sort.SliceStable(registry.table2, func(i, j int) bool {
			a, b := registry.byName[registry.table2[i]].scn, registry.byName[registry.table2[j]].scn
			if a.Group != b.Group {
				return a.Group < b.Group
			}
			return a.Name < b.Name
		})
	case KindFailure:
		registry.failure = append(registry.failure, v.Name)
	}
	return nil
}

func mustRegister(s Scenario, kind Kind) {
	if err := RegisterScenario(s, kind); err != nil {
		panic(err)
	}
}

// ScenarioByName returns a copy of a registered scenario of any kind.
func ScenarioByName(name string) (Scenario, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	e, ok := registry.byName[name]
	if !ok {
		return Scenario{}, false
	}
	return e.scn.Clone(), true
}

// ScenarioNames lists registered scenario names of one kind: Table 2
// in group-then-name order, other kinds in registration order.
func ScenarioNames(kind Kind) []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	var src []string
	switch kind {
	case KindTable2:
		src = registry.table2
	case KindFailure:
		src = registry.failure
	default:
		for _, name := range registry.order {
			if registry.byName[name].kind == kind {
				src = append(src, name)
			}
		}
		return src
	}
	return append([]string(nil), src...)
}

// Names lists the Table 2 benchmark names sorted by group then name,
// the order Table 2 uses. The list is maintained by the registry —
// metadata is built once at registration, not on every call.
func Names() []string {
	return ScenarioNames(KindTable2)
}

// ByName returns the benchmark program with the given name, compiled
// fresh from its registered scenario (any kind), so steps can be run
// repeatedly without sharing state between trials.
func ByName(name string) (Program, bool) {
	s, ok := ScenarioByName(name)
	if !ok {
		return Program{}, false
	}
	return s.MustCompile(), true
}

// All returns the full Table 2 benchmark suite compiled from the
// scenario registry, in Table 2 order.
func All() []Program {
	names := Names()
	out := make([]Program, 0, len(names))
	for _, name := range names {
		p, _ := ByName(name)
		out = append(out, p)
	}
	return out
}

// FailureCases returns the failure-scenario benchmark suite, compiled
// from the registry in registration order.
func FailureCases() []Program {
	names := ScenarioNames(KindFailure)
	out := make([]Program, 0, len(names))
	for _, name := range names {
		p, _ := ByName(name)
		out = append(out, p)
	}
	return out
}
