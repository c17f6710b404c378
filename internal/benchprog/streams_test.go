package benchprog_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/oskernel"
)

var update = flag.Bool("update", false, "rewrite testdata/scenario_streams.golden")

const streamsGolden = "testdata/scenario_streams.golden"

// pinnedKinds lists the registry kinds the golden covers, in file order.
var pinnedKinds = []benchprog.Kind{benchprog.KindTable2, benchprog.KindExtra, benchprog.KindFailure, benchprog.KindAttack}

// streamDigest runs both variants of a program in fresh kernels and
// hashes its description and every audit, libc and LSM event, timestamps
// included. Equal streams give equal graphs under every capture tool.
func streamDigest(t *testing.T, prog benchprog.Program) [32]byte {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "desc=%q\n", prog.Desc)
	for _, v := range []benchprog.Variant{benchprog.Background, benchprog.Foreground} {
		k := oskernel.New()
		tap := &oskernel.TapBuffer{}
		k.Register(tap)
		if err := benchprog.Run(k, prog, v); err != nil {
			t.Fatalf("%s/%s: %v", prog.Name, v, err)
		}
		fmt.Fprintf(h, "%s\naudit %+v\nlibc %+v\nlsm %+v\n", v, tap.AuditEvents, tap.LibcEvents, tap.LSMEvents)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// pinnedLines computes the golden lines of every registered program of
// the given kinds, in registry order.
func pinnedLines(t *testing.T, kinds ...benchprog.Kind) []string {
	t.Helper()
	var lines []string
	for _, kind := range kinds {
		for _, name := range benchprog.ScenarioNames(kind) {
			prog, ok := benchprog.ByName(name)
			if !ok {
				t.Fatalf("no program %q", name)
			}
			lines = append(lines, fmt.Sprintf("%s/%s %d %x", kind, name, prog.Group, streamDigest(t, prog)))
		}
	}
	return lines
}

// readGolden returns the golden's lines in file order.
func readGolden(t *testing.T) []string {
	t.Helper()
	golden, err := os.ReadFile(streamsGolden)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
}

// goldenKind returns the kind prefix of a golden line's key.
func goldenKind(line string) benchprog.Kind {
	kind, _, _ := strings.Cut(strings.Fields(line)[0], "/")
	return benchprog.Kind(kind)
}

// checkPinned requires the registered programs of the given kinds and the
// golden lines of those kinds to name the same programs with the same
// event streams.
func checkPinned(t *testing.T, kinds ...benchprog.Kind) {
	t.Helper()
	covered := make(map[benchprog.Kind]bool)
	for _, kind := range kinds {
		covered[kind] = true
	}
	want := make(map[string]string)
	var order []string
	for _, line := range readGolden(t) {
		if !covered[goldenKind(line)] {
			continue
		}
		key := strings.Fields(line)[0]
		want[key] = line
		order = append(order, key)
	}
	for _, line := range pinnedLines(t, kinds...) {
		key := strings.Fields(line)[0]
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("%s: registered but not pinned", key)
		case line != w:
			t.Errorf("%s: event streams changed:\n got  %s\n want %s", key, line, w)
		}
		delete(want, key)
	}
	for _, key := range order {
		if _, ok := want[key]; ok {
			t.Errorf("%s: pinned but no longer registered", key)
		}
	}
}

// TestScenarioStreamEquivalenceTable2 requires every Table 2 scenario to
// produce the event streams its seed closure produced, as pinned in the
// golden.
func TestScenarioStreamEquivalenceTable2(t *testing.T) {
	checkPinned(t, benchprog.KindTable2)
}

// TestScenarioStreamEquivalenceExtras does the same for the extra
// programs (rename-failed, privesc, reads8, scale1/2/4/8) and the
// failure cases.
func TestScenarioStreamEquivalenceExtras(t *testing.T) {
	checkPinned(t, benchprog.KindExtra, benchprog.KindFailure)
}

// TestScenarioStreamsPinned pins the attack chains, which never had a
// closure form, and requires the golden to hold only registry kinds.
// The golden holds one line per program (kind/name, group, sha256 of
// the description and both variants' streams). The non-attack lines
// were generated from the frozen closure forms the scenarios replaced.
// Regenerate with
//
//	go test ./internal/benchprog -run TestScenarioStreamsPinned -update
func TestScenarioStreamsPinned(t *testing.T) {
	if *update {
		got := pinnedLines(t, pinnedKinds...)
		if err := os.MkdirAll(filepath.Dir(streamsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	known := make(map[benchprog.Kind]bool)
	for _, kind := range pinnedKinds {
		known[kind] = true
	}
	for _, line := range readGolden(t) {
		if !known[goldenKind(line)] {
			t.Errorf("%s: not a pinned registry kind", strings.Fields(line)[0])
		}
	}
	checkPinned(t, benchprog.KindAttack)
}
