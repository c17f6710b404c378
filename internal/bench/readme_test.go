package bench

// The README's "Raw speed" section carries the perf-snapshot table
// between <!-- perf-snapshot:begin/end --> markers, rendered from the
// checked-in BENCH_11.json (with per-workload allocation ratios against
// the BENCH_10.json it supersedes). This drift guard regenerates the
// block from the artifacts and fails when the document and the numbers
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

// perfMarkdown renders cur as the README table. Its last column is each
// row's allocs/op as a multiple of prev's: allocation counts move
// little between runs and machines, whereas single-run ns/op figures
// taken on different machines do not compare.
func perfMarkdown(cur, prev *PerfSnapshot) string {
	prevAllocs := map[string]uint64{}
	for _, r := range prev.Results {
		prevAllocs[r.Name] = r.AllocsOp
	}
	var b strings.Builder
	fmt.Fprintf(&b, "| workload | ns/op | allocs/op | counters | allocs vs BENCH_%d |\n|---|---|---|---|---|\n", prev.ID)
	for _, r := range cur.Results {
		ratio := "new"
		if old, ok := prevAllocs[r.Name]; ok && old > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(r.AllocsOp)/float64(old))
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %s | %s |\n",
			r.Name, renderNs(r.NsOp), r.AllocsOp, renderCounters(r.Counters), ratio)
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
	cur := loadSnapshot(t, "../../BENCH_11.json")
	prev := loadSnapshot(t, "../../BENCH_10.json")
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
		t.Errorf("README perf table drifted from BENCH_11.json.\n--- README ---\n%s\n--- snapshot ---\n%s", got, want)
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
// carries over). BENCH_11.json claims the same against BENCH_10, and
// that the flat-array matching kernel cuts the bytes the symmetric
// similarity classes allocate: that row's 28 solves go through the
// solver's grounding.
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
	checkSameCounters(t, next, 10, cur)
	last := loadSnapshot(t, "../../BENCH_11.json")
	checkSameCounters(t, last, perfID, next)
	const sym = "classify/similarity/sym-32x4"
	if now, old := resultByName(last, sym).BytesOp, resultByName(next, sym).BytesOp; now <= 0 || now >= old {
		t.Errorf("%s: BENCH_11 %d bytes/op, BENCH_10 %d — the kernel's allocations did not fall", sym, now, old)
	}
}

// checkSameCounters asserts that snapshot next has the given id, one row
// per baseline, every row's counters equal to prev's and its own gate.
func checkSameCounters(t *testing.T, next *PerfSnapshot, id int, prev *PerfSnapshot) {
	t.Helper()
	if next.Schema != PerfSchema || next.ID != id || len(next.Results) != len(perfBaselines) {
		t.Errorf("BENCH_%d.json header = %q id %d with %d results, want %q id %d with %d",
			id, next.Schema, next.ID, len(next.Results), PerfSchema, id, len(perfBaselines))
	}
	for _, r := range next.Results {
		old := resultByName(prev, r.Name)
		if old == nil {
			t.Errorf("BENCH_%d.json row %s is not in BENCH_%d.json", id, r.Name, prev.ID)
			continue
		}
		if got, want := renderCounters(r.Counters), renderCounters(old.Counters); got != want {
			t.Errorf("%s: BENCH_%d counters %s, BENCH_%d %s", r.Name, id, got, prev.ID, want)
		}
	}
	if err := next.Gate(2); err != nil {
		t.Errorf("BENCH_%d.json fails its own gate: %v", id, err)
	}
}

// resultByName returns snap's row of that name, or nil.
func resultByName(snap *PerfSnapshot, name string) *PerfResult {
	for i := range snap.Results {
		if snap.Results[i].Name == name {
			return &snap.Results[i]
		}
	}
	return nil
}
