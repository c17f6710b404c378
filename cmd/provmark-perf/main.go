// provmark-perf writes the repo's performance snapshot: every
// counter-instrumented hot path (Datalog ancestry join probes,
// similarity-classification fingerprints and solver invocations) runs
// once, and the measurements land in BENCH_<id>.json (schema
// provmark/bench-snapshot/v1).
//
//	provmark-perf -o BENCH_10.json -gate 2
//
// With -gate set, the run fails when any counter exceeds the checked-in
// baseline by more than the given factor — the CI regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"provmark/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "provmark-perf:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("o", "BENCH_10.json", "snapshot path (- for stdout)")
	gate := flag.Float64("gate", 0, "fail when a counter exceeds baseline*factor (0 disables the gate)")
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments")
	}

	snap, err := bench.RunPerf()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	for _, r := range snap.Results {
		fmt.Fprintf(os.Stderr, "provmark-perf: %-32s %12d ns %10d allocs  %v\n", r.Name, r.NsOp, r.AllocsOp, r.Counters)
	}
	if *gate > 0 {
		if err := snap.Gate(*gate); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "provmark-perf: gate passed (factor %g)\n", *gate)
	}
	return nil
}
