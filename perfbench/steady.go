package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadyLimit is the run-to-run spread above which the self-check
// names a metric.
const steadyLimit = 0.10

// steadiness runs each workload (or only the named one) n times, each
// run a child process with its own seed, and prints every metric's
// spread: the distance between its first and third quartile as a
// share of its median. It fails when a run fails or a metric spreads
// more than steadyLimit.
func steadiness(ctx context.Context, only string, n, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var unsteady []string
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		for seed := 1; seed <= n; seed++ {
			res, err := child(ctx, self, w.name, seed, seconds)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", w.name, seed, res.Failed, res.Attempted)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("%s: %d runs of %ds\n", w.name, n, seconds)
		for _, k := range keys {
			q1, med, q3 := quartiles(values[k])
			spread := ratio(q3-q1, med)
			flag := ""
			if spread > steadyLimit {
				flag = "  UNSTEADY"
				unsteady = append(unsteady, w.name+"/"+k)
			}
			fmt.Printf("  %-18s median %12.4f %-5s q1 %12.4f q3 %12.4f spread %6.3f%s\n",
				k, med, units[k], q1, q3, spread, flag)
		}
	}
	if len(unsteady) > 0 {
		return fmt.Errorf("spread above %.2f: %v", steadyLimit, unsteady)
	}
	return nil
}

// child runs one untraced measurement in a child process and decodes
// its last output line.
func child(ctx context.Context, self, name string, seed, seconds int) (*result, error) {
	cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	return &res, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// default "exclusive" method).
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) < 2 {
		if len(d) == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
