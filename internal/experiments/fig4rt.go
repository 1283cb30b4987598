package experiments

import (
	"fmt"
	"time"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/core"
	"appfit/internal/rt"
	"appfit/internal/stats"
)

// Fig4RTRow sets one benchmark's complete-replication overhead measured on
// the real runtime beside what the simulator predicts for the same task
// graph on the same number of cores.
type Fig4RTRow struct {
	Bench string
	Tasks int
	// PlainMs and ReplMs are median wall times of a whole run (start the
	// runtime, build the graph, drain, stop) under ReplicateNone and
	// ReplicateAll; MeasuredPct is the overhead of the second over the first.
	PlainMs, ReplMs, MeasuredPct float64
	// SimSharedPct and SimSparePct are cluster.Run's overheads on one node
	// of as many cores as the runtime has workers: replicas competing with
	// primaries for those cores (ReplicaCores 0 — what a host without idle
	// cores offers), and replicas on as many spare cores again (the paper's
	// set-up, §V-A2).
	SimSharedPct, SimSparePct float64
}

// fig4RTBenches are the task graphs light enough per task for the runtime's
// own cost to show: the three the rt-plain / rt-replicate workloads of the
// end-to-end benchmark run.
var fig4RTBenches = []string{"stream", "pingpong", "cholesky"}

// Fig4RT cross-checks the model behind Figures 4-6 against the runtime it
// models: fault-free complete-replication overhead, measured on rt with
// `workers` workers (median of `repeats` alternating plain/replicated
// runs, every result verified) and simulated by cluster.Run for the same
// job. Wall clock, so recorded and not gated.
func Fig4RT(scale workload.Scale, workers, repeats int) ([]Fig4RTRow, string, error) {
	repeats = max(repeats, 1)
	var rows []Fig4RTRow
	for _, name := range fig4RTBenches {
		w, err := bench.ByName(name)
		if err != nil {
			return nil, "", err
		}
		row := Fig4RTRow{Bench: name}
		var ms [2][]float64 // wall times, plain and replicated
		for i := 0; i < repeats; i++ {
			for k, sel := range []core.Selector{core.ReplicateNone{}, core.ReplicateAll{}} {
				start := time.Now()
				r := rt.New(rt.Config{Workers: workers, Selector: sel})
				verify := w.BuildRT(r, scale)
				err := r.Shutdown()
				ms[k] = append(ms[k], float64(time.Since(start))/float64(time.Millisecond))
				if err == nil {
					err = verify()
				}
				if err != nil {
					return nil, "", fmt.Errorf("experiments: fig4rt: %s under %s: %w", name, sel.Name(), err)
				}
				row.Tasks = int(r.Stats().Completed)
			}
		}
		row.PlainMs, row.ReplMs = stats.Percentile(ms[0], 50), stats.Percentile(ms[1], 50)
		row.MeasuredPct = 100 * (row.ReplMs - row.PlainMs) / row.PlainMs

		p := prepared(w, scale, 1)
		var sim [3]cluster.Result // unreplicated; replicated without and with spare cores
		for k, cfg := range []cluster.Config{
			{},
			{Replicated: p.AllReplicated()},
			{Replicated: p.AllReplicated(), ReplicaCores: workers},
		} {
			cfg.Nodes, cfg.CoresPerNode = 1, workers
			if sim[k], err = cluster.Run(p.Job(), cfg); err != nil {
				return nil, "", fmt.Errorf("experiments: fig4rt: simulate %s: %w", name, err)
			}
		}
		row.SimSharedPct, row.SimSparePct = sim[1].OverheadPct(sim[0]), sim[2].OverheadPct(sim[0])
		rows = append(rows, row)
	}
	t := stats.NewTable("benchmark", "tasks", "rt plain ms", "rt repl ms", "measured %",
		"simulated % (no spare cores)", "simulated % (spare cores)")
	for _, r := range rows {
		t.AddRow(r.Bench, r.Tasks, r.PlainMs, r.ReplMs, r.MeasuredPct, r.SimSharedPct, r.SimSparePct)
	}
	return rows, t.String(), nil
}
