package provjson_test

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/capture/camflow"
	"provmark/internal/graph"
	"provmark/internal/provjson"
)

// recordings calls each with every PROV-JSON recording the CamFlow
// recorder makes, with and without denied calls recorded, for the
// programs of the pinned Table 2 grid and for ScaleScenario 8 to 64:
// both variants, every default trial.
func recordings(tb testing.TB, each func(name string, data []byte)) {
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
	for _, denied := range []string{"false", "true"} {
		rec, err := capture.Open("camflow", capture.Options{Fast: true, Params: map[string]string{"record_denied": denied}})
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
					each(prog.Name+"/"+v.String(), native.(camflow.Output).JSON)
				}
			}
		}
	}
}

// TestCodecMatchesOracleOnRecordings checks Unmarshal and Marshal
// against the encoding/json oracle on every CamFlow recording: the same
// graph read, and the same bytes written back, which are the recorded
// bytes themselves.
func TestCodecMatchesOracleOnRecordings(t *testing.T) {
	count := 0
	recordings(t, func(name string, data []byte) {
		count++
		g, err := provjson.Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := oracleUnmarshal(data)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !graph.Equal(g, want) || g.String() != want.String() {
			t.Fatalf("%s: graphs differ:\n%s\noracle:\n%s", name, g, want)
		}
		out, err := provjson.Marshal(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantOut, err := oracleMarshal(g)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !bytes.Equal(out, wantOut) {
			t.Fatalf("%s: written bytes differ:\n%s\noracle:\n%s", name, out, wantOut)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("%s: rewritten recording differs:\n%s\nrecorded:\n%s", name, out, data)
		}
	})
	if count == 0 {
		t.Fatal("no recordings")
	}
	t.Logf("%d recordings", count)
}

// BenchmarkNativeCodecs writes and reads back the CamFlow recording of
// ScaleScenario(32).
func BenchmarkNativeCodecs(b *testing.B) {
	rec, err := capture.Open("camflow", capture.Options{Fast: true})
	if err != nil {
		b.Fatal(err)
	}
	native, err := rec.Record(benchprog.ScaleScenario(32).MustCompile(), benchprog.Foreground, 0)
	if err != nil {
		b.Fatal(err)
	}
	g, err := provjson.Unmarshal(native.(camflow.Output).JSON)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := provjson.Marshal(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := provjson.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMarshalMatchesOracleOnAwkwardGraphs checks Marshal's bytes
// against the oracle on seeded random graphs whose ids, labels, keys
// and values mix control bytes, HTML characters, invalid UTF-8, the
// line separators, role keys as edge properties, and relation names
// that are node kinds.
func TestMarshalMatchesOracleOnAwkwardGraphs(t *testing.T) {
	pieces := []string{"", "a", "\u00e9", "<", ">", "&", "\"", "\\", "\x00", "\x1f", "\x7f", "\b\f\n\r\t",
		"\xff", "\xe2\x80", "\u2028", "\u2029", "\U0001F600", "prov:activity", "prov:entity", "prov:from"}
	rng := rand.New(rand.NewPCG(26, 1))
	word := func() string {
		var b strings.Builder
		for i := rng.IntN(4); i > 0; i-- {
			b.WriteString(pieces[rng.IntN(len(pieces))])
		}
		return b.String()
	}
	props := func() graph.Properties {
		p := graph.Properties{}
		for i := rng.IntN(4); i > 0; i-- {
			p[word()] = word()
		}
		return p
	}
	// AddNode can mint the id of an existing edge, so a node and an
	// edge can share a section and an id; the edge, written later,
	// replaces the node.
	clash := graph.New()
	first := clash.AddNode("activity", graph.Properties{"k": "v"})
	if err := clash.InsertEdge("n2", first, first, "entity", nil); err != nil {
		t.Fatal(err)
	}
	clash.AddNode("entity", nil)
	got, err := provjson.Marshal(clash)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := oracleMarshal(clash); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("shared id: Marshal and oracle disagree (oracle error %v):\n%s\noracle:\n%s", err, got, want)
	}
	kinds := []string{"entity", "activity", "agent"}
	relations := []string{"used", "wasGeneratedBy", "wasInformedBy", "custom", "entity", "prefix"}
	for i := 0; i < 3000; i++ {
		g := graph.New()
		var ids []graph.ElemID
		for n := rng.IntN(5); n >= 0; n-- {
			id := graph.ElemID(word())
			if g.InsertNode(id, kinds[rng.IntN(len(kinds))], props()) == nil {
				ids = append(ids, id)
			}
		}
		for n := rng.IntN(5); n > 0; n-- {
			src, tgt := ids[rng.IntN(len(ids))], ids[rng.IntN(len(ids))]
			_ = g.InsertEdge(graph.ElemID(word()), src, tgt, relations[rng.IntN(len(relations))], props())
		}
		got, err := provjson.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleMarshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("graph %d: Marshal and oracle disagree:\n%s\noracle:\n%s", i, got, want)
		}
	}
}
