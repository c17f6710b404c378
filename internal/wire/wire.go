// Package wire defines the versioned, client-facing serialization of
// ProvMark results: canonical JSON encodings of pipeline results,
// matrix cells, job specifications and job status. The wire form is
// the contract between provmarkd, its clients, and the report
// renderers — internal structs may change freely, the wire schema
// only grows behind its schema-version field.
//
// Canonical means deterministic: struct fields encode in declaration
// order and property maps encode with sorted keys, so encoding the
// same value twice yields byte-identical JSON. Decoding is strict:
// unknown fields, trailing data, and schema-version mismatches are
// errors, so a round trip decode(encode(x)) == x holds for every
// value a decoder accepts.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"

	"provmark/internal/benchprog"
)

// SchemaVersion is the current wire schema version. Every top-level
// wire object carries it in a "schema" field. Compatibility contract:
// within one version, fields are never removed or re-typed; additions
// bump the version, and decoders reject versions they do not know
// rather than guessing.
const SchemaVersion = 1

// Node is one vertex of a wire graph, in insertion order.
type Node struct {
	ID    string            `json:"id"`
	Label string            `json:"label"`
	Props map[string]string `json:"props,omitempty"`
}

// Edge is one directed edge of a wire graph, in insertion order.
type Edge struct {
	ID    string            `json:"id"`
	Src   string            `json:"src"`
	Tgt   string            `json:"tgt"`
	Label string            `json:"label"`
	Props map[string]string `json:"props,omitempty"`
}

// Graph is the wire form of a property graph. Element order is
// significant: it preserves the insertion order of the source graph so
// renderings derived from the wire form are byte-stable.
type Graph struct {
	Nodes []Node `json:"nodes,omitempty"`
	Edges []Edge `json:"edges,omitempty"`
}

// StageTimes reports per-stage wall-clock durations in nanoseconds.
// ClassificationNS is a sub-stage of generalization: its time is
// contained in GeneralizationNS and therefore NOT added again into
// TotalNS (which sums the four top-level stages only).
type StageTimes struct {
	RecordingNS      int64 `json:"recording_ns"`
	TransformationNS int64 `json:"transformation_ns"`
	GeneralizationNS int64 `json:"generalization_ns"`
	ClassificationNS int64 `json:"classification_ns"`
	ComparisonNS     int64 `json:"comparison_ns"`
	TotalNS          int64 `json:"total_ns"`
}

// Result is the wire form of one pipeline outcome (one benchmark under
// one tool). Target is null for empty results; Reason then explains
// the emptiness in the EmptyReason vocabulary.
type Result struct {
	Schema    int        `json:"schema"`
	Tool      string     `json:"tool"`
	Benchmark string     `json:"benchmark"`
	Trials    int        `json:"trials"`
	Empty     bool       `json:"empty"`
	Reason    string     `json:"reason,omitempty"`
	Cost      int        `json:"cost"`
	Times     StageTimes `json:"times"`
	Target    *Graph     `json:"target,omitempty"`
	FG        *Graph     `json:"fg,omitempty"`
	BG        *Graph     `json:"bg,omitempty"`
}

// MatrixResult is the wire form of one completed matrix cell, the
// NDJSON line streamed by provmarkd as cells finish.
type MatrixResult struct {
	Schema    int    `json:"schema"`
	Index     int    `json:"index"`
	Tool      string `json:"tool"`
	Benchmark string `json:"benchmark"`
	// Cell is the deduplication key of the (tool, benchmark, options)
	// combination, usable with GET /v1/results/{cell}.
	Cell string `json:"cell,omitempty"`
	// Cached reports that the result was served from the shared result
	// store instead of a fresh pipeline run.
	Cached bool    `json:"cached,omitempty"`
	Result *Result `json:"result,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// CaptureOptions is the wire form of the capture registry's backend
// configuration (capture.Options): the Fast toggle plus the config.ini
// parameter vocabulary of Appendix A.4.
type CaptureOptions struct {
	Fast   bool              `json:"fast,omitempty"`
	Params map[string]string `json:"params,omitempty"`
}

// JobSpec describes a (tools × benchmarks) matrix job. An empty
// Benchmarks list selects the full Table 1 suite — unless Scenarios
// are present, in which case an empty Benchmarks list selects no named
// benchmarks and the job runs the inline scenarios alone. Options are
// expressed in the capture.Options / pipeline-option vocabulary.
type JobSpec struct {
	Schema     int      `json:"schema,omitempty"`
	Tools      []string `json:"tools"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Scenarios are inline benchmark programs in the declarative
	// scenario vocabulary (benchprog.Scenario): validated strictly at
	// decode time, run like any named benchmark, and deduplicated by
	// canonical scenario content rather than by name.
	Scenarios []benchprog.Scenario `json:"scenarios,omitempty"`
	// Capture is a pointer so an all-default configuration is omitted
	// from the canonical encoding (omitempty never elides a struct
	// value); nil means the backend's paper-baseline configuration.
	Capture *CaptureOptions `json:"capture,omitempty"`
	// Trials per variant; 0 selects each tool's default.
	Trials int `json:"trials,omitempty"`
	// Parallelism bounds concurrent recording workers within one cell.
	Parallelism int `json:"parallelism,omitempty"`
	// FilterGraphs overrides the recorder's default graph filtering.
	FilterGraphs *bool `json:"filter_graphs,omitempty"`
	// BGPair / FGPair choose the trial-pair size preference per variant:
	// "", "smallest" or "largest".
	BGPair string `json:"bg_pair,omitempty"`
	FGPair string `json:"fg_pair,omitempty"`
}

// Job states reported by JobStatus.
const (
	JobRunning  = "running"
	JobDone     = "done"
	JobCanceled = "canceled"
)

// CellRef identifies one cell of a job and its completion state.
type CellRef struct {
	Cell      string `json:"cell"`
	Tool      string `json:"tool"`
	Benchmark string `json:"benchmark"`
	Done      bool   `json:"done"`
}

// JobStatus is the wire form of a job's externally visible state.
type JobStatus struct {
	Schema    int       `json:"schema"`
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Total     int       `json:"total"`
	Completed int       `json:"completed"`
	Failed    int       `json:"failed"`
	Cells     []CellRef `json:"cells,omitempty"`
}

// EncodeResult renders the canonical JSON encoding of a result. The
// value must carry the current schema version (zero is stamped).
func EncodeResult(r *Result) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("wire: encode: nil result")
	}
	v := *r
	if err := stampSchema(&v.Schema); err != nil {
		return nil, fmt.Errorf("wire: encode result: %w", err)
	}
	return json.Marshal(&v)
}

// DecodeResult strictly parses a canonical result encoding: unknown
// fields, trailing data, or a schema-version mismatch are errors. The
// decoded value is normalized to canonical form (empty containers
// become nil), so decode ∘ encode is the identity on decoded values.
func DecodeResult(data []byte) (*Result, error) {
	var r Result
	if err := decodeStrict(data, &r); err != nil {
		return nil, fmt.Errorf("wire: decode result: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("wire: decode result: unsupported schema version %d (want %d)", r.Schema, SchemaVersion)
	}
	if err := r.validate(); err != nil {
		return nil, fmt.Errorf("wire: decode result: %w", err)
	}
	r.normalize()
	return &r, nil
}

// validate enforces the schema's cross-field invariant: the target
// graph is present exactly when the result is non-empty. Consumers
// (the report renderers, provmark-batch's sinks) rely on it.
func (r *Result) validate() error {
	if r.Empty && r.Target != nil {
		return fmt.Errorf("empty result carries a target graph")
	}
	if !r.Empty && r.Target == nil {
		return fmt.Errorf("non-empty result lacks a target graph")
	}
	return nil
}

// EncodeMatrixResult renders the canonical JSON encoding of one matrix
// cell — one NDJSON stream line.
func EncodeMatrixResult(m *MatrixResult) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("wire: encode: nil matrix result")
	}
	v := *m
	if err := stampSchema(&v.Schema); err != nil {
		return nil, fmt.Errorf("wire: encode matrix result: %w", err)
	}
	if v.Result != nil {
		res := *v.Result
		if err := stampSchema(&res.Schema); err != nil {
			return nil, fmt.Errorf("wire: encode matrix result: %w", err)
		}
		v.Result = &res
	}
	return json.Marshal(&v)
}

// DecodeMatrixResult strictly parses one matrix-cell encoding.
func DecodeMatrixResult(data []byte) (*MatrixResult, error) {
	var m MatrixResult
	if err := decodeStrict(data, &m); err != nil {
		return nil, fmt.Errorf("wire: decode matrix result: %w", err)
	}
	if m.Schema != SchemaVersion {
		return nil, fmt.Errorf("wire: decode matrix result: unsupported schema version %d (want %d)", m.Schema, SchemaVersion)
	}
	// A cell is either a result or an error, never both and never
	// neither — consumers dereference Result unguarded when Err is "".
	if (m.Result == nil) == (m.Err == "") {
		return nil, fmt.Errorf("wire: decode matrix result: cell must carry exactly one of result and err")
	}
	if m.Result != nil {
		if m.Result.Schema != SchemaVersion {
			return nil, fmt.Errorf("wire: decode matrix result: embedded result has schema version %d (want %d)", m.Result.Schema, SchemaVersion)
		}
		if err := m.Result.validate(); err != nil {
			return nil, fmt.Errorf("wire: decode matrix result: %w", err)
		}
		// Consumers file the cell under its benchmark and render it under
		// the result's. Tools may differ: alias spn records as spade.
		if m.Result.Benchmark != m.Benchmark {
			return nil, fmt.Errorf("wire: decode matrix result: cell %s/%s carries result %s/%s", m.Tool, m.Benchmark, m.Result.Tool, m.Result.Benchmark)
		}
		m.Result.normalize()
	}
	return &m, nil
}

// EncodeJobSpec renders the canonical JSON encoding of a job spec.
// Inline scenarios are canonicalized (on a copy) so the same scenario
// content always encodes to the same bytes.
func EncodeJobSpec(s *JobSpec) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("wire: encode: nil job spec")
	}
	v := *s
	if err := stampSchema(&v.Schema); err != nil {
		return nil, fmt.Errorf("wire: encode job spec: %w", err)
	}
	if len(v.Scenarios) > 0 {
		scns := make([]benchprog.Scenario, len(v.Scenarios))
		for i := range v.Scenarios {
			scns[i] = v.Scenarios[i].Clone()
			if err := scns[i].Canonicalize(); err != nil {
				return nil, fmt.Errorf("wire: encode job spec: scenario %d: %w", i, err)
			}
		}
		v.Scenarios = scns
	}
	return json.Marshal(&v)
}

// DecodeJobSpec strictly parses a job spec. Unlike results, a zero
// schema version is accepted (hand-written client bodies may omit it)
// and normalized to the current version.
func DecodeJobSpec(data []byte) (*JobSpec, error) {
	var s JobSpec
	if err := decodeStrict(data, &s); err != nil {
		return nil, fmt.Errorf("wire: decode job spec: %w", err)
	}
	if s.Schema == 0 {
		s.Schema = SchemaVersion
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("wire: decode job spec: unsupported schema version %d (want %d)", s.Schema, SchemaVersion)
	}
	if len(s.Tools) == 0 {
		s.Tools = nil
	}
	if len(s.Benchmarks) == 0 {
		s.Benchmarks = nil
	}
	if len(s.Scenarios) == 0 {
		s.Scenarios = nil
	}
	for i := range s.Scenarios {
		if err := s.Scenarios[i].Canonicalize(); err != nil {
			return nil, fmt.Errorf("wire: decode job spec: scenario %d: %w", i, err)
		}
	}
	if s.Capture != nil {
		if len(s.Capture.Params) == 0 {
			s.Capture.Params = nil
		}
		if !s.Capture.Fast && s.Capture.Params == nil {
			s.Capture = nil // all-default capture collapses to absent
		}
	}
	return &s, nil
}

// EncodeJobStatus renders the canonical JSON encoding of a job status.
func EncodeJobStatus(s *JobStatus) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("wire: encode: nil job status")
	}
	v := *s
	if err := stampSchema(&v.Schema); err != nil {
		return nil, fmt.Errorf("wire: encode job status: %w", err)
	}
	return json.Marshal(&v)
}

// DecodeJobStatus strictly parses a job status.
func DecodeJobStatus(data []byte) (*JobStatus, error) {
	var s JobStatus
	if err := decodeStrict(data, &s); err != nil {
		return nil, fmt.Errorf("wire: decode job status: %w", err)
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("wire: decode job status: unsupported schema version %d (want %d)", s.Schema, SchemaVersion)
	}
	if len(s.Cells) == 0 {
		s.Cells = nil
	}
	return &s, nil
}

// normalize rewrites decoded values into canonical form: JSON cannot
// distinguish an absent container from an empty one, and the canonical
// encoding always omits empties, so decoded empty containers collapse
// to nil.
func (r *Result) normalize() {
	for _, g := range []*Graph{r.Target, r.FG, r.BG} {
		if g != nil {
			g.normalize()
		}
	}
}

func (g *Graph) normalize() {
	if len(g.Nodes) == 0 {
		g.Nodes = nil
	}
	if len(g.Edges) == 0 {
		g.Edges = nil
	}
	for i := range g.Nodes {
		if len(g.Nodes[i].Props) == 0 {
			g.Nodes[i].Props = nil
		}
	}
	for i := range g.Edges {
		if len(g.Edges[i].Props) == 0 {
			g.Edges[i].Props = nil
		}
	}
}

// stampSchema fills a zero schema field with the current version and
// rejects any other version the encoder does not speak.
func stampSchema(schema *int) error {
	if *schema == 0 {
		*schema = SchemaVersion
		return nil
	}
	if *schema != SchemaVersion {
		return fmt.Errorf("unsupported schema version %d (want %d)", *schema, SchemaVersion)
	}
	return nil
}

// decodeStrict parses exactly one JSON value into dst, rejecting
// unknown fields and trailing content.
func decodeStrict(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}
