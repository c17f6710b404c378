package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/graph"
)

func sampleResult() *Result {
	return &Result{
		Schema:    SchemaVersion,
		Tool:      "spade",
		Benchmark: "creat",
		Trials:    2,
		Cost:      1,
		Times: StageTimes{
			RecordingNS:      4_000_000,
			TransformationNS: 150_000,
			GeneralizationNS: 500_000,
			ClassificationNS: 200_000,
			ComparisonNS:     100_000,
			TotalNS:          4_750_000,
		},
		Target: &Graph{
			Nodes: []Node{
				{ID: "n1", Label: "Process", Props: map[string]string{"pid": "7"}},
				{ID: "n2", Label: "Artifact", Props: map[string]string{"path": "/x"}},
			},
			Edges: []Edge{
				{ID: "e1", Src: "n1", Tgt: "n2", Label: "WasGeneratedBy"},
			},
		},
		FG: &Graph{Nodes: []Node{{ID: "n1", Label: "Process"}}},
		BG: &Graph{},
	}
}

func TestResultRoundTrip(t *testing.T) {
	r := sampleResult()
	data, err := EncodeResult(r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodeResult(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("round trip changed the value:\nbefore: %+v\nafter:  %+v", r, back)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	r := sampleResult()
	a, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("encoding is not deterministic:\n%s\n%s", a, b)
	}
}

func TestEncodeStampsZeroSchema(t *testing.T) {
	r := sampleResult()
	r.Schema = 0
	data, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != 0 {
		t.Fatal("encode mutated its input")
	}
	back, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", back.Schema, SchemaVersion)
	}
}

func TestDecodeRejections(t *testing.T) {
	cases := map[string]string{
		"unknown field":    `{"schema":1,"tool":"t","benchmark":"b","trials":1,"empty":false,"cost":0,"times":{"recording_ns":0,"transformation_ns":0,"generalization_ns":0,"classification_ns":0,"comparison_ns":0,"total_ns":0},"bogus":1}`,
		"wrong schema":     `{"schema":99,"tool":"t","benchmark":"b","trials":1,"empty":false,"cost":0,"times":{"recording_ns":0,"transformation_ns":0,"generalization_ns":0,"classification_ns":0,"comparison_ns":0,"total_ns":0}}`,
		"missing schema":   `{"tool":"t","benchmark":"b","trials":1,"empty":false,"cost":0,"times":{"recording_ns":0,"transformation_ns":0,"generalization_ns":0,"classification_ns":0,"comparison_ns":0,"total_ns":0}}`,
		"trailing garbage": `{"schema":1,"tool":"t","benchmark":"b","trials":1,"empty":false,"cost":0,"times":{"recording_ns":0,"transformation_ns":0,"generalization_ns":0,"classification_ns":0,"comparison_ns":0,"total_ns":0}} {}`,
		"not json":         `hello`,
		// Cross-field invariant: target present iff non-empty.
		"non-empty without target": `{"schema":1,"tool":"t","benchmark":"b","trials":1,"empty":false,"cost":0,"times":{"recording_ns":0,"transformation_ns":0,"generalization_ns":0,"classification_ns":0,"comparison_ns":0,"total_ns":0}}`,
		"empty with target":        `{"schema":1,"tool":"t","benchmark":"b","trials":1,"empty":true,"reason":"x","cost":0,"times":{"recording_ns":0,"transformation_ns":0,"generalization_ns":0,"classification_ns":0,"comparison_ns":0,"total_ns":0},"target":{}}`,
	}
	for name, in := range cases {
		if _, err := DecodeResult([]byte(in)); err == nil {
			t.Errorf("%s: decode accepted %q", name, in)
		}
	}
}

func TestMatrixResultRoundTrip(t *testing.T) {
	m := &MatrixResult{
		Schema:    SchemaVersion,
		Index:     3,
		Tool:      "spade",
		Benchmark: "creat",
		Cell:      "abc123",
		Cached:    true,
		Result:    sampleResult(),
	}
	data, err := EncodeMatrixResult(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMatrixResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("round trip changed the value:\nbefore: %+v\nafter:  %+v", m, back)
	}
	// An error cell (no result) round trips too.
	e := &MatrixResult{Schema: SchemaVersion, Index: 0, Tool: "t", Benchmark: "b", Err: "boom"}
	data, err = EncodeMatrixResult(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err = DecodeMatrixResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, back) {
		t.Fatalf("error cell round trip changed the value: %+v vs %+v", e, back)
	}
	// A cell carries exactly one of result and err.
	if _, err := DecodeMatrixResult([]byte(`{"schema":1,"index":0,"tool":"t","benchmark":"b"}`)); err == nil {
		t.Error("cell with neither result nor err accepted")
	}
	both, _ := EncodeMatrixResult(&MatrixResult{Schema: SchemaVersion, Tool: "spade", Benchmark: "creat", Result: sampleResult(), Err: "boom"})
	if _, err := DecodeMatrixResult(both); err == nil {
		t.Error("cell with both result and err accepted")
	}
}

// TestDecodeRejectsMisfiledResult: a cell must carry the result of its
// own benchmark, or a consumer would store it under one name and render
// it under another. Its tool may be an alias of the result's recorder.
func TestDecodeRejectsMisfiledResult(t *testing.T) {
	res := sampleResult()
	res.Tool, res.Benchmark = "camflow", "close"
	decode := func(tool, benchmark string) error {
		cell := MatrixResult{Schema: SchemaVersion, Tool: tool, Benchmark: benchmark, Result: res}
		data, err := EncodeMatrixResult(&cell)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeMatrixResult(data)
		return err
	}
	for _, cell := range [][2]string{{"spade", "open"}, {"camflow", "open"}} {
		if decode(cell[0], cell[1]) == nil {
			t.Errorf("cell %s/%s carrying result camflow/close accepted", cell[0], cell[1])
		}
	}
	for _, tool := range []string{"camflow", "cam"} {
		if err := decode(tool, "close"); err != nil {
			t.Errorf("cell %s/close carrying result camflow/close rejected: %v", tool, err)
		}
	}
}

func TestJobSpecRoundTrip(t *testing.T) {
	filter := true
	s := &JobSpec{
		Schema:       SchemaVersion,
		Tools:        []string{"spade", "camflow"},
		Benchmarks:   []string{"creat"},
		Capture:      &CaptureOptions{Fast: true, Params: map[string]string{"versioning": "false"}},
		Trials:       4,
		Parallelism:  2,
		FilterGraphs: &filter,
		BGPair:       "largest",
		FGPair:       "smallest",
	}
	data, err := EncodeJobSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJobSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the value: %+v vs %+v", s, back)
	}
	// A minimal hand-written body without a schema field is accepted
	// and normalized to the current version.
	min, err := DecodeJobSpec([]byte(`{"tools":["spade"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if min.Schema != SchemaVersion || len(min.Tools) != 1 {
		t.Fatalf("minimal spec = %+v", min)
	}
	if _, err := DecodeJobSpec([]byte(`{"tools":["spade"],"nope":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// Canonical encoding omits an all-default capture configuration,
	// and decoding collapses an explicit default one to absent.
	enc, err := EncodeJobSpec(&JobSpec{Tools: []string{"spade"}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), "capture") {
		t.Errorf("default capture not omitted: %s", enc)
	}
	norm, err := DecodeJobSpec([]byte(`{"tools":["spade"],"capture":{"fast":false}}`))
	if err != nil {
		t.Fatal(err)
	}
	if norm.Capture != nil {
		t.Errorf("default capture not collapsed to nil: %+v", norm.Capture)
	}
}

func TestJobSpecScenarios(t *testing.T) {
	spec := &JobSpec{
		Tools: []string{"spade"},
		Scenarios: []benchprog.Scenario{{
			Name: "pipe-probe",
			Steps: []benchprog.Instr{
				{Op: "pipe", SaveFD: "r", SaveFD2: "w"},
				{Op: "tee", FD: "r", FD2: "w", N: 4, Target: true},
			},
		}},
	}
	data, err := EncodeJobSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJobSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Scenarios) != 1 || back.Scenarios[0].Name != "pipe-probe" {
		t.Fatalf("scenarios lost in round trip: %+v", back)
	}
	if !reflect.DeepEqual(back.Scenarios, spec.Scenarios) {
		t.Errorf("scenario round trip drift: %+v", back.Scenarios)
	}
	// Decoding normalizes inline scenarios (flag canonicalization),
	// so decoded specs hash stably.
	messy := []byte(`{"tools":["spade"],"scenarios":[{"name":"f","steps":[{"op":"open","path":"/etc/passwd","flags":["rdonly","trunc","wronly"],"errno":"EACCES","target":true}]}]}`)
	dec, err := DecodeJobSpec(messy)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Scenarios[0].Steps[0].Flags; !reflect.DeepEqual(got, []string{"wronly", "trunc"}) {
		t.Errorf("scenario flags not canonicalized: %v", got)
	}
	// Invalid inline scenarios are a decode error, not a latent fault.
	for _, bad := range []string{
		`{"tools":["spade"],"scenarios":[{"name":"x","steps":[{"op":"mount"}]}]}`,
		`{"tools":["spade"],"scenarios":[{"name":"x","steps":[{"op":"open","path":"/f","bogus":true}]}]}`,
		`{"tools":["spade"],"scenarios":[{"name":"x"}]}`,
	} {
		if _, err := DecodeJobSpec([]byte(bad)); err == nil {
			t.Errorf("accepted invalid scenario spec: %s", bad)
		}
	}
}

func TestJobStatusRoundTrip(t *testing.T) {
	s := &JobStatus{
		Schema:    SchemaVersion,
		ID:        "j1",
		State:     JobRunning,
		Total:     3,
		Completed: 1,
		Cells: []CellRef{
			{Cell: "k1", Tool: "spade", Benchmark: "creat", Done: true},
			{Cell: "k2", Tool: "spade", Benchmark: "open"},
		},
	}
	data, err := EncodeJobStatus(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJobStatus(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the value: %+v vs %+v", s, back)
	}
}

func TestGraphConversionRoundTrip(t *testing.T) {
	g := graph.New()
	p := g.AddNode("Process", graph.Properties{"pid": "42"})
	a := g.AddNode("Artifact", nil)
	if _, err := g.AddEdge(p, a, "Used", graph.Properties{"operation": "read"}); err != nil {
		t.Fatal(err)
	}
	w := FromGraph(g)
	back, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(g, back) {
		t.Fatalf("graph conversion round trip changed the graph:\n%s\nvs\n%s", g, back)
	}
	if w.String() != g.String() {
		t.Fatalf("wire String diverges from graph String:\n%q\nvs\n%q", w.String(), g.String())
	}
	if w.Summary() != graph.Summarize(g).String() {
		t.Fatalf("wire Summary %q != graph Summarize %q", w.Summary(), graph.Summarize(g))
	}
	if FromGraph(nil) != nil {
		t.Fatal("FromGraph(nil) != nil")
	}
	nilBuilt, err := (*Graph)(nil).Build()
	if err != nil || nilBuilt != nil {
		t.Fatalf("nil Build = %v, %v", nilBuilt, err)
	}
}

func TestBuildRejectsBadGraphs(t *testing.T) {
	bad := []*Graph{
		{Nodes: []Node{{ID: "n1", Label: "a"}, {ID: "n1", Label: "b"}}},
		{Nodes: []Node{{ID: "n1", Label: "a"}}, Edges: []Edge{{ID: "e1", Src: "n1", Tgt: "nope", Label: "x"}}},
		{Nodes: []Node{{ID: "n1", Label: "a"}}, Edges: []Edge{{ID: "n1", Src: "n1", Tgt: "n1", Label: "x"}}},
	}
	for i, w := range bad {
		if _, err := w.Build(); err == nil {
			t.Errorf("bad graph %d accepted", i)
		}
	}
}

func TestCanonicalJSONShape(t *testing.T) {
	data, err := EncodeResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"schema":1`, `"times":{`, `"classification_ns":200000`, `"total_ns":4750000`} {
		if !strings.Contains(s, want) {
			t.Errorf("encoding lacks %s:\n%s", want, s)
		}
	}
	if strings.Contains(s, "\n") {
		t.Error("canonical encoding is not single-line")
	}
}
