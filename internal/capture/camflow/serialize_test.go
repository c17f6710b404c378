package camflow

import (
	"context"
	"errors"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/provmark"
)

// TestSerializeOnceBreaksRepeatTrials documents why the 0.4.5
// re-serialization workaround exists (Section 3.2): under the old
// serialize-once policy, each later trial is missing the structures an
// earlier session already emitted, so no two trials agree and the
// pipeline cannot generalize.
func TestSerializeOnceBreaksRepeatTrials(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterPeriod = 0
	cfg.SerializeOnce = true
	rec := New(cfg)
	prog, _ := benchprog.ByName("open")
	n0, err := rec.Record(prog, benchprog.Foreground, 0)
	if err != nil {
		t.Fatal(err)
	}
	g0, err := rec.Transform(n0)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := rec.Record(prog, benchprog.Foreground, 1)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := rec.Transform(n1)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Size() >= g0.Size() {
		t.Errorf("second trial (%d elements) not smaller than first (%d): serialize-once not modelled",
			g1.Size(), g0.Size())
	}

	// The full pipeline fails with the honest error.
	rec2 := New(cfg)
	_, err = provmark.New(rec2, provmark.WithTrials(3)).RunContext(context.Background(), prog)
	if !errors.Is(err, provmark.ErrInconsistentTrials) {
		t.Errorf("want ErrInconsistentTrials under serialize-once, got %v", err)
	}
}

// TestReserializationWorkaroundRestoresRepeatability: the 0.4.5
// default (SerializeOnce off) yields consistent trials.
func TestReserializationWorkaroundRestoresRepeatability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterPeriod = 0
	prog, _ := benchprog.ByName("open")
	res, err := provmark.New(New(cfg), provmark.WithTrials(2)).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty {
		t.Errorf("open empty: %s", res.Reason)
	}
}
