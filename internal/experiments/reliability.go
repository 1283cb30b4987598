package experiments

import (
	"fmt"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/rt"
	"appfit/internal/stats"
)

// ReliabilityRow reports the empirical outcome of one policy under
// accelerated fault injection.
type ReliabilityRow struct {
	Policy string
	// Runs is the number of end-to-end executions.
	Runs int
	// Corrupted counts runs whose final numeric result was wrong
	// (verification failed): an SDC escaped.
	Corrupted int
	// Crashes counts unprotected DUE events summed over runs (each would
	// have killed the real application).
	Crashes int
	// PctTasksReplicated is the average replication fraction.
	PctTasksReplicated float64
}

// Reliability is the empirical validation the paper's FIT bookkeeping
// implies but never measures directly: run a benchmark repeatedly under a
// FIT-proportional fault injector (accelerated by boost so events are
// observable) and count actually-corrupted results for replicate-none,
// App_FIT, and replicate-all. The expected ordering — none ≫ App_FIT ≫
// all ≈ 0 — is what "the specified reliability target is achieved" cashes
// out to.
func Reliability(benchName string, scale workload.Scale, runs int, boost float64) ([]ReliabilityRow, string, error) {
	w, err := bench.ByName(benchName)
	if err != nil {
		return nil, "", err
	}
	if runs < 1 {
		runs = 20
	}
	n, threshold, _, err := DryRun(w, scale, 2, fit.Roadrunner())
	if err != nil {
		return nil, "", err
	}
	if boost <= 0 {
		// Adaptive acceleration: target ~5% fault probability per
		// execution attempt at the mean task FIT (under 10× rates), hot
		// enough that an unprotected run almost surely corrupts, cool
		// enough that bounded recovery never exhausts.
		meanFIT := 10 * threshold / float64(n)
		p := fit.FailureProb(meanFIT, 1)
		if p > 0 {
			boost = 0.05 / p
		} else {
			boost = 1e9
		}
	}

	var rows []ReliabilityRow
	for _, policy := range []func() core.Selector{
		func() core.Selector { return core.ReplicateNone{} },
		func() core.Selector { return core.NewAppFIT(threshold, n) },
		func() core.Selector { return core.ReplicateAll{} },
	} {
		row := ReliabilityRow{Policy: policy().Name(), Runs: runs}
		var fracs []float64
		for run := 0; run < runs; run++ {
			inj := fault.NewSeeded(uint64(run)*1315423911 + 7)
			inj.Boost = boost
			r, verified, err := runRT(w, scale, rt.Config{
				Workers:  2,
				Selector: policy(),
				Rates:    fit.Roadrunner().Scale(10), RatesSet: true,
				Injector: inj,
			})
			if err != nil {
				// Exhausted recovery counts as a crash, not corruption.
				row.Crashes++
				continue
			}
			st := r.Stats()
			row.Crashes += int(st.UnprotectedDUE)
			if !verified {
				row.Corrupted++
			}
			fracs = append(fracs, st.PctTasksReplicated())
		}
		row.PctTasksReplicated = stats.Mean(fracs)
		rows = append(rows, row)
	}

	t := stats.NewTable("policy", "runs", "corrupted results", "crash events", "tasks replicated %")
	for _, r := range rows {
		t.AddRow(r.Policy, r.Runs, r.Corrupted, r.Crashes, r.PctTasksReplicated)
	}
	hdr := fmt.Sprintf("reliability under accelerated faults: %s/%s, %d runs, FIT-proportional injection ×%.0g, rates 10x\n",
		benchName, scale, runs, boost)
	return rows, hdr + t.String(), nil
}
