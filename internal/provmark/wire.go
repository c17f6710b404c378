package provmark

import (
	"errors"
	"time"

	"provmark/internal/wire"
)

// ToWire converts a pipeline result to its versioned wire form — the
// serialization boundary shared by provmarkd, the report renderers and
// the JSON result type.
func ToWire(res *Result) *wire.Result {
	if res == nil {
		return nil
	}
	return &wire.Result{
		Schema:    wire.SchemaVersion,
		Tool:      res.Tool,
		Benchmark: res.Benchmark,
		Trials:    res.Trials,
		Empty:     res.Empty,
		Reason:    string(res.Reason),
		Cost:      res.Cost,
		Times:     toWireTimes(res.Times),
		Target:    wire.FromGraph(res.Target),
		FG:        wire.FromGraph(res.FG),
		BG:        wire.FromGraph(res.BG),
	}
}

// FromWire materializes a wire result back into the internal form,
// validating the embedded graphs. TotalNS is informational on the
// wire; internally StageTimes.Total is always recomputed.
func FromWire(w *wire.Result) (*Result, error) {
	if w == nil {
		return nil, errors.New("provmark: nil wire result")
	}
	// The schema invariant (target present iff non-empty) is what lets
	// every consumer dereference Target unguarded; re-check it here so
	// hand-built wire values are as safe as decoded ones.
	if !w.Empty && w.Target == nil {
		return nil, errors.New("provmark: non-empty wire result lacks a target graph")
	}
	target, err := w.Target.Build()
	if err != nil {
		return nil, err
	}
	fg, err := w.FG.Build()
	if err != nil {
		return nil, err
	}
	bg, err := w.BG.Build()
	if err != nil {
		return nil, err
	}
	return &Result{
		Benchmark: w.Benchmark,
		Tool:      w.Tool,
		Trials:    w.Trials,
		Target:    target,
		Empty:     w.Empty,
		Reason:    EmptyReason(w.Reason),
		FG:        fg,
		BG:        bg,
		Cost:      w.Cost,
		Times:     fromWireTimes(w.Times),
	}, nil
}

func toWireTimes(t StageTimes) wire.StageTimes {
	return wire.StageTimes{
		RecordingNS:      t.Recording.Nanoseconds(),
		TransformationNS: t.Transformation.Nanoseconds(),
		GeneralizationNS: t.Generalization.Nanoseconds(),
		ClassificationNS: t.Classification.Nanoseconds(),
		ComparisonNS:     t.Comparison.Nanoseconds(),
		TotalNS:          t.Total().Nanoseconds(),
	}
}

func fromWireTimes(t wire.StageTimes) StageTimes {
	return StageTimes{
		Recording:      time.Duration(t.RecordingNS),
		Transformation: time.Duration(t.TransformationNS),
		Generalization: time.Duration(t.GeneralizationNS),
		Classification: time.Duration(t.ClassificationNS),
		Comparison:     time.Duration(t.ComparisonNS),
	}
}

// ToWireCell converts a completed matrix cell to its wire form. The
// dedup key (Cell) and the Cached flag belong to the jobs layer and
// are left zero here.
func ToWireCell(cell MatrixResult) *wire.MatrixResult {
	w := &wire.MatrixResult{
		Schema:    wire.SchemaVersion,
		Index:     cell.Index,
		Tool:      cell.Tool,
		Benchmark: cell.Benchmark,
		Result:    ToWire(cell.Result),
	}
	if cell.Err != nil {
		w.Err = cell.Err.Error()
	}
	return w
}
