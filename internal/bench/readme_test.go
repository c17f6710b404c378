package bench

// The README's "Raw speed" section carries the perf-snapshot table
// between <!-- perf-snapshot:begin/end --> markers, rendered from the
// checked-in BENCH_10.json (with per-workload speedups against the
// BENCH_9.json it supersedes). This drift guard regenerates the block
// from the artifacts and fails when the document and the numbers
// disagree — after re-committing a snapshot, paste the rendered block
// from the failure message.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

func loadSnapshot(t *testing.T, path string) *PerfSnapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap PerfSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return &snap
}

func renderCounters(c map[string]int64) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s %d", k, c[k]))
	}
	return strings.Join(parts, ", ")
}

func perfMarkdown(cur, prev *PerfSnapshot) string {
	prevNs := map[string]int64{}
	for _, r := range prev.Results {
		prevNs[r.Name] = r.NsOp
	}
	var b strings.Builder
	b.WriteString("| workload | ns/op | allocs/op | counters | vs BENCH_9 |\n|---|---|---|---|---|\n")
	for _, r := range cur.Results {
		speedup := "new"
		if old, ok := prevNs[r.Name]; ok && r.NsOp > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(old)/float64(r.NsOp))
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %s | %s |\n",
			r.Name, renderNs(r.NsOp), r.AllocsOp, renderCounters(r.Counters), speedup)
	}
	return b.String()
}

func renderNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.0fµs", float64(ns)/1e3)
	}
}

func TestReadmePerfTableMatchesSnapshot(t *testing.T) {
	cur := loadSnapshot(t, "../../BENCH_10.json")
	prev := loadSnapshot(t, "../../BENCH_9.json")
	if cur.ID != perfID {
		t.Fatalf("checked-in snapshot id = %d, harness perfID = %d", cur.ID, perfID)
	}
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- perf-snapshot:begin -->", "<!-- perf-snapshot:end -->"
	doc := string(data)
	i := strings.Index(doc, begin)
	j := strings.Index(doc, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README.md lacks the %s/%s markers", begin, end)
	}
	got := strings.TrimSpace(doc[i+len(begin) : j])
	want := strings.TrimSpace(perfMarkdown(cur, prev))
	if got != want {
		t.Errorf("README perf table drifted from BENCH_10.json.\n--- README ---\n%s\n--- snapshot ---\n%s", got, want)
	}
}

// TestCheckedInSnapshotHoldsTheClaims: the committed snapshots are
// themselves evidence — re-assert their headline claims against the
// artifacts rather than a live run, so a stale or hand-edited snapshot
// cannot carry claims it does not show. BENCH_9.json claims >=2x
// ancestry speedups over BENCH_8, exact seq/par probe parity and a
// >=100x WL allocation drop; BENCH_10.json, which only retires the
// naive-flat and wl-refine/legacy rows, claims its own gate and every
// remaining row's counters unchanged from BENCH_9 (so the parity
// carries over).
func TestCheckedInSnapshotHoldsTheClaims(t *testing.T) {
	cur := loadSnapshot(t, "../../BENCH_9.json")
	prev := loadSnapshot(t, "../../BENCH_8.json")
	curBy, prevBy := map[string]PerfResult{}, map[string]PerfResult{}
	for _, r := range cur.Results {
		curBy[r.Name] = r
	}
	for _, r := range prev.Results {
		prevBy[r.Name] = r
	}
	for _, name := range []string{"datalog/ancestry/seminaive-flat", "datalog/ancestry/seminaive-deep"} {
		old, now := prevBy[name].NsOp, curBy[name].NsOp
		if now <= 0 || old < 2*now {
			t.Errorf("%s: %d ns vs BENCH_8 %d ns — below the 2x floor", name, now, old)
		}
	}
	seq := curBy["datalog/ancestry/seminaive-flat"].Counters["join_probes"]
	par := curBy["datalog/ancestry/interned-par"].Counters["join_probes"]
	if seq <= 0 || seq != par {
		t.Errorf("snapshot probe parity: sequential %d vs parallel %d", seq, par)
	}
	legacy, interned := curBy["graph/wl-refine/legacy"].AllocsOp, curBy["graph/wl-refine/interned"].AllocsOp
	if interned*100 > legacy {
		t.Errorf("snapshot wl-refine allocs: interned %d vs legacy %d — drop below 100x", interned, legacy)
	}
	if err := cur.Gate(2); err != nil {
		t.Errorf("checked-in snapshot fails its own gate: %v", err)
	}

	next := loadSnapshot(t, "../../BENCH_10.json")
	if next.Schema != PerfSchema || next.ID != perfID || len(next.Results) != len(perfBaselines) {
		t.Errorf("BENCH_10.json header = %q id %d with %d results, want %q id %d with %d",
			next.Schema, next.ID, len(next.Results), PerfSchema, perfID, len(perfBaselines))
	}
	for _, r := range next.Results {
		old, ok := curBy[r.Name]
		if !ok {
			t.Errorf("BENCH_10.json row %s is not in BENCH_9.json", r.Name)
			continue
		}
		if got, want := renderCounters(r.Counters), renderCounters(old.Counters); got != want {
			t.Errorf("%s: BENCH_10 counters %s, BENCH_9 %s", r.Name, got, want)
		}
	}
	if err := next.Gate(2); err != nil {
		t.Errorf("BENCH_10.json fails its own gate: %v", err)
	}
}
