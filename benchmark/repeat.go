package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// manifest is the part of BENCHMARK.json -repeat needs: each end-to-end
// metric's direction and regression bound.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat is the tool the bounds were set with, and it measures the way
// the driver does: k untraced runs of each workload, each its own process
// and its own seed; per end-to-end metric the median, the quartiles and the
// spread — the interquartile distance as a share of the median. A spread
// beyond the metric's bound fails the run; setup_s is printed but, as in
// the driver, its spread is not held to the bound.
func runRepeat(ctx context.Context, ws []workloadDef, k int, seed uint64, seconds float64, log io.Writer) error {
	if k < 2 {
		return errors.New("-repeat needs at least 2 runs to have quartiles")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var wide []string
	for _, w := range ws {
		values := make(map[string][]float64)
		for i := 0; i < k; i++ {
			cmd := exec.CommandContext(ctx, self, "-workload", w.name,
				"-seed", strconv.FormatUint(seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w\n%s", w.name, i, err, stderr.String())
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: last line: %w", w.name, i, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: %d of %d operations failed", w.name, i, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		fmt.Fprintf(log, "%s, %d runs of %g s, seeds %d..%d\n", w.name, k, seconds, seed, seed+uint64(k)-1)
		fmt.Fprintf(log, "  %-16s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, e := range man.EndToEnd {
			q1, q2, q3 := quartiles(values[e.Name])
			spread := ratio(q3-q1, q2)
			mark := ""
			if spread > e.Bound && e.Name != "setup_s" {
				mark = "  > bound"
				wide = append(wide, w.name+"/"+e.Name)
			}
			fmt.Fprintf(log, "  %-16s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s\n",
				e.Name, q1, q2, q3, 100*spread, 100*e.Bound, mark)
		}
	}
	if len(wide) > 0 {
		return fmt.Errorf("spread beyond the bound: %v", wide)
	}
	return nil
}
