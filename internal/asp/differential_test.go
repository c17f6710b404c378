package asp

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// referenceDiff reports the first way the solver's answers on p differ
// from the frozen reference solver's, or "" when they agree: the same
// Selected and Cost from Solve and SolveMin, and the same model
// sequence from SolveAll.
func referenceDiff(p *Problem) string {
	for _, optimize := range []bool{false, true} {
		got, gotErr := p.solve(optimize)
		want, wantErr := refSolve(p, optimize)
		if (gotErr == nil) != (wantErr == nil) {
			return fmt.Sprintf("optimize=%v: err %v, reference err %v", optimize, gotErr, wantErr)
		}
		if gotErr == nil && fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Sprintf("optimize=%v: %v, reference %v", optimize, got, want)
		}
	}
	const limit = 500
	var got, want []string
	p.SolveAll(limit, func(s *Solution) bool { got = append(got, fmt.Sprint(s)); return true })
	refSolveAll(p, limit, func(s *Solution) bool { want = append(want, fmt.Sprint(s)); return true })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Sprintf("SolveAll models %v, reference %v", got, want)
	}
	return ""
}

// TestSolverMatchesReference: on random problems mixing pairwise
// conflicts and at-most-one sets, the solver takes exactly the frozen
// reference solver's decisions.
func TestSolverMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProblem(rand.New(rand.NewSource(seed)))
		if d := referenceDiff(p); d != "" {
			t.Logf("seed %d: %s\n%s", seed, d, p.Render())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzSolverMatchesReference runs the same differential on problems
// built from fuzzer-chosen bytes.
func FuzzSolverMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 3, 1, 0, 2, 1, 3, 2, 0, 1, 2, 0, 0, 1, 2, 2, 1, 0, 3})
	f.Add([]byte{2, 2, 2, 0, 1, 1, 2, 2, 0, 1, 0, 1, 0, 1, 2, 2, 3, 0, 1, 4, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := problemFromBytes(data)
		if d := referenceDiff(p); d != "" {
			t.Fatalf("%s\n%s", d, p.Render())
		}
	})
}
