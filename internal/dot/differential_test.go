package dot_test

import (
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/capture/spade"
	"provmark/internal/dot"
	"provmark/internal/graph"
)

// recordings calls each with every DOT recording the SPADE recorder
// makes, with its audit and with its CamFlow reporter, for the
// programs of the pinned Table 2 grid and for ScaleScenario 8 to 64:
// both variants, every default trial.
func recordings(tb testing.TB, each func(prog benchprog.Program, v benchprog.Variant, text string)) {
	tb.Helper()
	var progs []benchprog.Program
	for _, name := range benchprog.Names() {
		prog, ok := benchprog.ByName(name)
		if !ok {
			tb.Fatalf("no benchmark %q", name)
		}
		progs = append(progs, prog)
	}
	for _, n := range []int{8, 16, 32, 64} {
		progs = append(progs, benchprog.ScaleScenario(n).MustCompile())
	}
	for _, reporter := range []string{"audit", "camflow"} {
		rec, err := capture.Open("spade", capture.Options{Fast: true, Params: map[string]string{"reporter": reporter}})
		if err != nil {
			tb.Fatal(err)
		}
		for _, prog := range progs {
			for _, v := range []benchprog.Variant{benchprog.Background, benchprog.Foreground} {
				for trial := 0; trial < rec.DefaultTrials(); trial++ {
					native, err := rec.Record(prog, v, trial)
					if err != nil {
						tb.Fatal(err)
					}
					each(prog, v, native.(spade.Output).DOT)
				}
			}
		}
	}
}

// TestCodecMatchesOracleOnRecordings checks ParseString and WriteString
// against the oracle codec on every SPADE recording: the same graph
// read, and the same bytes written back.
func TestCodecMatchesOracleOnRecordings(t *testing.T) {
	count := 0
	recordings(t, func(prog benchprog.Program, v benchprog.Variant, text string) {
		count++
		name := prog.Name + "/" + v.String()
		g, err := dot.ParseString(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := oracleParseString(text)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !graph.Equal(g, want) || g.String() != want.String() {
			t.Fatalf("%s: graphs differ:\n%s\noracle:\n%s", name, g, want)
		}
		// The recorder names its digraph after the program, so writing
		// the graph back reproduces the recording.
		out := dot.WriteString(g, "spade_"+prog.Name)
		if want := oracleWriteString(g, "spade_"+prog.Name); out != want {
			t.Fatalf("%s: written bytes differ:\n%s\noracle:\n%s", name, out, want)
		}
		if out != text {
			t.Fatalf("%s: rewritten recording differs:\n%s\nrecorded:\n%s", name, out, text)
		}
	})
	if count == 0 {
		t.Fatal("no recordings")
	}
	t.Logf("%d recordings", count)
}

// BenchmarkNativeCodecs writes and reads back the SPADE recording of
// ScaleScenario(32).
func BenchmarkNativeCodecs(b *testing.B) {
	rec, err := capture.Open("spade", capture.Options{Fast: true})
	if err != nil {
		b.Fatal(err)
	}
	native, err := rec.Record(benchprog.ScaleScenario(32).MustCompile(), benchprog.Foreground, 0)
	if err != nil {
		b.Fatal(err)
	}
	g, err := dot.ParseString(native.(spade.Output).DOT)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dot.ParseString(dot.WriteString(g, "scale32")); err != nil {
			b.Fatal(err)
		}
	}
}
