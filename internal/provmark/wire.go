package provmark

import "provmark/internal/wire"

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
