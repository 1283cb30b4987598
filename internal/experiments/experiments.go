// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Table I (benchmark inventory), Figure 1 (dataflow vs
// fork-join), Figure 2 (the replication design walk-through), Figure 3
// (App_FIT selective-replication fractions at 10× and 5× error rates),
// Figure 4 (complete-replication overheads), Figure 5 (shared-memory
// scalability) and Figure 6 (distributed scalability), plus the ablations
// DESIGN.md §4 lists. Each experiment returns structured rows and a rendered
// text table; cmd/experiments prints them and EXPERIMENTS.md records
// paper-vs-measured.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/rt"
	"appfit/internal/stats"
	"appfit/internal/sweep"
	"appfit/internal/trace"
)

// ErrCriteria is the sentinel wrapped by every experiment whose measured
// result violates an acceptance criterion from the paper's evaluation
// (optimized must beat random, hierarchical must beat flat, ...), so
// harnesses can errors.Is a criteria failure apart from setup errors.
var ErrCriteria = errors.New("experiments: acceptance criterion failed")

// Table1 renders the benchmark inventory with measured task counts and
// input footprints at the given scale.
func Table1(scale workload.Scale) string {
	t := stats.NewTable("benchmark", "class", "description", "paper size", "tasks@"+scale.String(), "input MB")
	cm := workload.DefaultCostModel()
	for _, w := range bench.All() {
		class := "shared-memory"
		nodes := 1
		if w.Distributed() {
			class = "distributed"
			nodes = 4
		}
		job := w.BuildJob(scale, nodes, cm)
		t.AddRow(w.Name(), class, w.Description(), w.PaperSize(),
			len(job.Tasks), float64(w.InputBytes(scale))/1e6)
	}
	return t.String()
}

// Fig1 demonstrates the dataflow-vs-fork-join semantics of the paper's
// Figure 1: tasks A1→A2 on array A and an independent long task B. Dataflow
// lets B overlap A1; fork-join's taskwait after A1 serializes B behind it.
func Fig1(eng *sweep.Engine) string {
	mk := func(forkJoin bool) cluster.Job {
		j := cluster.Job{Name: "fig1"}
		j.Tasks = append(j.Tasks, cluster.Task{Label: "A1", Node: 0, Cost: 100})
		j.Tasks = append(j.Tasks, cluster.Task{Label: "A2", Node: 0, Cost: 100, Deps: []int{0}})
		b := cluster.Task{Label: "B", Node: 0, Cost: 300}
		if forkJoin {
			b.Deps = []int{0} // the taskwait barrier orders B after A1
		}
		j.Tasks = append(j.Tasks, b)
		return j
	}
	cfg := cluster.Config{Nodes: 1, CoresPerNode: 2}
	df, err1 := eng.Run(mk(false), cfg)
	fj, err2 := eng.Run(mk(true), cfg)
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("fig1 error: %v %v", err1, err2)
	}
	t := stats.NewTable("model", "makespan (ns)", "note")
	t.AddRow("dataflow", int64(df.Makespan), "B overlaps A1 (deps inferred from inout)")
	t.AddRow("fork-join", int64(fj.Makespan), "taskwait after A1 blocks independent B")
	return t.String() +
		fmt.Sprintf("\ndataflow finishes %.0f%% sooner on 2 cores\n",
			100*(1-float64(df.Makespan)/float64(fj.Makespan)))
}

// Fig2 walks the replication design through a scripted SDC: checkpoint,
// replica, compare, detect, restore, re-execute, vote — the paper's Figure 2
// sequence — and returns the recovery event timeline plus the runtime's
// counters.
func Fig2() string {
	tr := trace.New()
	inj := fault.NewScript().Set(1, 0, fault.SDC).SetBit(1, 0, 17)
	r := rt.New(rt.Config{Workers: 2, Selector: core.ReplicateAll{}, Injector: inj, Tracer: tr})
	b := buffer.NewF64(64)
	for i := range b {
		b[i] = float64(i)
	}
	r.Submit("kernel", func(ctx *rt.Ctx) {
		x := ctx.F64(0)
		for i := range x {
			x[i] = x[i]*2 + 1
		}
	}, rt.Inout("A", b))
	if err := r.Shutdown(); err != nil {
		return "fig2 error: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString("Figure 2 walk-through (scripted SDC in the primary):\n")
	tr.WriteTimeline(&sb)
	st := r.Stats()
	fmt.Fprintf(&sb, "SDC detected: %d, recovered: %d, checkpoint saves: %d, result intact: %v\n",
		st.SDCDetected, st.SDCRecovered, st.Checkpoint.Saves, b[1] == 3)
	return sb.String()
}

// Fig3Row is one benchmark's App_FIT result (the paper's Figure 3 bars).
type Fig3Row struct {
	Bench      string
	Tasks      int
	Threshold  float64 // application FIT at 1× rates
	PctTasks10 float64
	PctTime10  float64
	Achieved10 float64 // unprotected FIT reached at 10× rates
	PctTasks5  float64
	PctTime5   float64
	Achieved5  float64
	VerifyOK   bool
}

// Fig3Config parameterizes the Figure 3 run.
type Fig3Config struct {
	Scale   workload.Scale
	Workers int
	Repeats int // the paper averages 10 runs; each repeat reshuffles wall timings
}

func (c Fig3Config) withDefaults() Fig3Config {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.Repeats < 1 {
		c.Repeats = 3
	}
	return c
}

// Fig3 runs every benchmark under App_FIT at 10× and 5× exascale error
// rates with the threshold pinned to the application's FIT at today's (1×)
// rates, reproducing the paper's headline experiment (§V-A1: on average 53%
// of tasks and 60% of time replicated at 10×; 30% and 36% at 5×).
func Fig3(cfg Fig3Config) ([]Fig3Row, string) {
	cfg = cfg.withDefaults()
	var rows []Fig3Row
	for _, w := range bench.All() {
		row := fig3One(w, cfg)
		rows = append(rows, row)
	}
	t := stats.NewTable("benchmark", "tasks", "thr FIT",
		"tasks%10x", "time%10x", "tasks%5x", "time%5x", "fit<=thr", "verified")
	var t10, m10, t5, m5 []float64
	for _, r := range rows {
		ok := r.Achieved10 <= r.Threshold*1.0001 && r.Achieved5 <= r.Threshold*1.0001
		t.AddRow(r.Bench, r.Tasks, fmt.Sprintf("%.3g", r.Threshold),
			r.PctTasks10, r.PctTime10, r.PctTasks5, r.PctTime5, ok, r.VerifyOK)
		t10 = append(t10, r.PctTasks10)
		m10 = append(m10, r.PctTime10)
		t5 = append(t5, r.PctTasks5)
		m5 = append(m5, r.PctTime5)
	}
	t.AddRow("AVERAGE", "", "", stats.Mean(t10), stats.Mean(m10), stats.Mean(t5), stats.Mean(m5), "", "")
	note := "\npaper: avg 53% tasks / 60% time at 10x; 30% tasks / 36% time at 5x\n"
	return rows, t.String() + note
}

// fig3One runs the dry pass (per-task FITs at 1× → threshold and N) and the
// two App_FIT passes for one benchmark.
func fig3One(w workload.Workload, cfg Fig3Config) Fig3Row {
	base := fit.Roadrunner()
	// Dry pass at 1× rates: count tasks and sum their FITs.
	tr := trace.New()
	r := rt.New(rt.Config{Workers: cfg.Workers, Rates: base, RatesSet: true, Tracer: tr})
	verify := w.BuildRT(r, cfg.Scale)
	if err := r.Shutdown(); err != nil {
		return Fig3Row{Bench: w.Name()}
	}
	vOK := verify() == nil
	n := 0
	threshold := 0.0
	for _, rec := range tr.Records() {
		n++
		threshold += rec.FITDue + rec.FITSdc
	}
	row := Fig3Row{Bench: w.Name(), Tasks: n, Threshold: threshold, VerifyOK: vOK}

	run := func(k float64) (pctTasks, pctTime, achieved float64) {
		var pts, ptm []float64
		var ach float64
		for rep := 0; rep < cfg.Repeats; rep++ {
			sel := core.NewAppFIT(threshold, n)
			tr2 := trace.New()
			r2 := rt.New(rt.Config{
				Workers: cfg.Workers, Selector: sel,
				Rates: base.Scale(k), RatesSet: true, Tracer: tr2,
			})
			verify2 := w.BuildRT(r2, cfg.Scale)
			if err := r2.Shutdown(); err != nil {
				continue
			}
			if verify2() != nil {
				row.VerifyOK = false
			}
			sum := tr2.Summarize()
			pts = append(pts, sum.PctTasksReplicated())
			ptm = append(ptm, sum.PctTimeReplicated())
			if f := sel.CurrentFIT(); f > ach {
				ach = f
			}
		}
		return stats.Mean(pts), stats.Mean(ptm), ach
	}
	row.PctTasks10, row.PctTime10, row.Achieved10 = run(10)
	row.PctTasks5, row.PctTime5, row.Achieved5 = run(5)
	return row
}

// Fig4Row is one benchmark's complete-replication overhead (Figure 4).
type Fig4Row struct {
	Bench       string
	BaseMs      float64 // fault-free unreplicated makespan (virtual ms)
	ReplMs      float64 // complete-replication makespan
	OverheadPct float64
	AppFITPct   float64 // overhead when only App_FIT-selected tasks replicate
}

// Fig4Requests builds the fig-4 sweep batch in row order: per benchmark a
// fault-free base run, a complete-replication run (replicas on spare
// cores, §V-A2) and an App_FIT-selective run — three requests per
// benchmark. It is exported because this batch is the repo's canonical
// "fig-4-class sweep": BenchmarkSweep measures the engine against it. The
// jobs build as wide as a default engine's worker pool.
func Fig4Requests(scale workload.Scale, ws []workload.Workload) []sweep.Request {
	return fig4Requests(runtime.GOMAXPROCS(0), scale, ws)
}

func fig4Requests(workers int, scale workload.Scale, ws []workload.Workload) []sweep.Request {
	cm := workload.DefaultCostModel()
	type built struct {
		nodes int
		p     *sweep.Prepared
		sel   []bool
	}
	jobs := buildAll(workers, len(ws), func(i int) built {
		nodes := 1
		if ws[i].Distributed() {
			nodes = 64
		}
		p := sweep.Prepare(ws[i].BuildJob(scale, nodes, cm))
		return built{nodes, p, SelectAppFIT(p.Job(), 10)}
	})
	var reqs []sweep.Request
	for _, b := range jobs {
		cfg := cluster.Config{Nodes: b.nodes, CoresPerNode: 16}
		cfgAll := cfg
		cfgAll.ReplicaCores = 16
		cfgAll.Replicated = b.p.AllReplicated()
		cfgSel := cfg
		cfgSel.ReplicaCores = 16
		cfgSel.Replicated = b.sel
		reqs = append(reqs, b.p.Request(cfg), b.p.Request(cfgAll), b.p.Request(cfgSel))
	}
	return reqs
}

// buildAll runs build(0..n-1) as independent work items on workers
// goroutines and returns the results in index order. A figure's jobs are
// pure functions of (benchmark, scale, nodes), so building them beside each
// other instead of one after another changes no request and no table.
func buildAll[T any](workers, n int, build func(i int) T) []T {
	out := make([]T, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				out[i] = build(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// Fig4 measures the fault-free performance overhead of complete task
// replication on the simulated machine (shared benchmarks: 1 node × 16
// cores; distributed: 64 nodes × 16 cores), plus the overhead of App_FIT's
// selective set at 10× rates — the paper reports 2.5% average for complete
// replication. The three runs per benchmark execute as one sweep batch; a
// failed run fails the whole figure with the request named, never a
// silently shortened table.
func Fig4(eng *sweep.Engine, scale workload.Scale) ([]Fig4Row, string, error) {
	ws := bench.All()
	resps, err := eng.RunBatch(context.Background(), fig4Requests(eng.Workers(), scale, ws))
	if err != nil {
		return nil, "", fmt.Errorf("experiments: fig4: %w", err)
	}
	var rows []Fig4Row
	for i, w := range ws {
		baseRes := resps[3*i].Result
		replRes := resps[3*i+1].Result
		selRes := resps[3*i+2].Result
		rows = append(rows, Fig4Row{
			Bench:       w.Name(),
			BaseMs:      baseRes.Makespan.Seconds() * 1e3,
			ReplMs:      replRes.Makespan.Seconds() * 1e3,
			OverheadPct: replRes.OverheadPct(baseRes),
			AppFITPct:   selRes.OverheadPct(baseRes),
		})
	}
	t := stats.NewTable("benchmark", "base ms", "repl ms", "overhead %", "app_fit overhead %")
	var ovs []float64
	for _, r := range rows {
		t.AddRow(r.Bench, r.BaseMs, r.ReplMs, r.OverheadPct, r.AppFITPct)
		ovs = append(ovs, r.OverheadPct)
	}
	t.AddRow("AVERAGE", "", "", stats.Mean(ovs), "")
	return rows, t.String() + "\npaper: 2.5% average overhead for complete replication\n", nil
}

// SelectAppFIT runs the App_FIT decision sequence over a simulator job in
// program order (threshold = application FIT at 1× rates, task rates at k×)
// and returns the per-task replication choices. This is the bridge that
// lets the virtual-time engine run under the paper's heuristic.
func SelectAppFIT(job cluster.Job, k float64) []bool {
	base := fit.Roadrunner()
	est1 := fit.NewEstimator(base)
	estK := fit.NewEstimator(base.Scale(k))
	threshold := 0.0
	for i, t := range job.Tasks {
		threshold += est1.Estimate(uint64(i+1), t.ArgBytes).Total()
	}
	sel := core.NewAppFIT(threshold, len(job.Tasks))
	out := make([]bool, len(job.Tasks))
	for i, t := range job.Tasks {
		tk := estK.Estimate(uint64(i+1), t.ArgBytes)
		out[i] = sel.Decide(tk)
		sel.Observe(tk, out[i])
	}
	return out
}

// ScalingPoint is one (cores, fault-rate) speedup measurement.
type ScalingPoint struct {
	Bench   string
	Cores   int
	Rate    float64
	Speedup float64
}

// Fig5 reproduces the shared-memory scalability experiment: speedup over 1
// core at 1..16 cores under per-task fault rates {0, low, high} with
// complete task replication (§V-A2, Figure 5). All (benchmark, rate, cores)
// cells execute as one sweep batch; any failed cell fails the figure with
// the request named.
func Fig5(eng *sweep.Engine, scale workload.Scale) ([]ScalingPoint, string, error) {
	cm := workload.DefaultCostModel()
	cores := []int{1, 2, 4, 8, 16}
	rates := []float64{0, 1e-3, 1e-2}
	ws := bench.SharedMemory()
	jobs := buildAll(eng.Workers(), len(ws), func(i int) *sweep.Prepared {
		return sweep.Prepare(ws[i].BuildJob(scale, 1, cm))
	})
	var reqs []sweep.Request
	for _, p := range jobs {
		for _, rate := range rates {
			for _, c := range cores {
				cfg := cluster.Config{
					Nodes: 1, CoresPerNode: c, ReplicaCores: c,
					Replicated: p.AllReplicated(),
				}
				if rate > 0 {
					cfg.Injector = fault.NewFixedRate(42, rate/2, rate/2)
				}
				reqs = append(reqs, p.Request(cfg))
			}
		}
	}
	resps, err := eng.RunBatch(context.Background(), reqs)
	if err != nil {
		return nil, "", fmt.Errorf("experiments: fig5: %w", err)
	}
	var pts []ScalingPoint
	t := stats.NewTable("benchmark", "fault rate", "1", "2", "4", "8", "16")
	i := 0
	for _, w := range ws {
		for _, rate := range rates {
			var base cluster.Result
			row := []interface{}{w.Name(), fmt.Sprintf("%g", rate)}
			for ci, c := range cores {
				res := resps[i].Result
				i++
				if ci == 0 {
					base = res
				}
				sp := res.Speedup(base)
				pts = append(pts, ScalingPoint{Bench: w.Name(), Cores: c, Rate: rate, Speedup: sp})
				row = append(row, sp)
			}
			t.AddRow(row...)
		}
	}
	return pts, t.String() + "\npaper: near-linear scaling for all but stream (each rate has its own 1-core baseline)\n", nil
}

// Fig6 reproduces the distributed scalability experiment: speedup over 64
// cores (4 nodes × 16) at up to 1024 cores (64 nodes × 16) under per-task
// fault rates with complete replication (§V-A2, Figure 6).
// Like Fig5, the whole grid executes as one sweep batch and a failed cell
// fails the figure with the request named.
func Fig6(eng *sweep.Engine, scale workload.Scale) ([]ScalingPoint, string, error) {
	cm := workload.DefaultCostModel()
	nodeCounts := []int{4, 8, 16, 32, 64}
	rates := []float64{0, 1e-3, 1e-2}
	ws := bench.DistributedSet()
	// One DAG per (benchmark, node count), built, hashed and laid out once
	// for all three rates.
	jobs := buildAll(eng.Workers(), len(ws)*len(nodeCounts), func(i int) *sweep.Prepared {
		return sweep.Prepare(ws[i/len(nodeCounts)].BuildJob(scale, nodeCounts[i%len(nodeCounts)], cm))
	})
	var reqs []sweep.Request
	for wi := range ws {
		for _, rate := range rates {
			for ni, nodes := range nodeCounts {
				p := jobs[wi*len(nodeCounts)+ni]
				cfg := cluster.Config{
					Nodes: nodes, CoresPerNode: 16, ReplicaCores: 16,
					Replicated: p.AllReplicated(),
				}
				if rate > 0 {
					cfg.Injector = fault.NewFixedRate(42, rate/2, rate/2)
				}
				reqs = append(reqs, p.Request(cfg))
			}
		}
	}
	resps, err := eng.RunBatch(context.Background(), reqs)
	if err != nil {
		return nil, "", fmt.Errorf("experiments: fig6: %w", err)
	}
	var pts []ScalingPoint
	t := stats.NewTable("benchmark", "fault rate", "64", "128", "256", "512", "1024")
	i := 0
	for _, w := range ws {
		for _, rate := range rates {
			var base cluster.Result
			row := []interface{}{w.Name(), fmt.Sprintf("%g", rate)}
			for ni, nodes := range nodeCounts {
				res := resps[i].Result
				i++
				if ni == 0 {
					base = res
				}
				sp := res.Speedup(base)
				pts = append(pts, ScalingPoint{Bench: w.Name(), Cores: nodes * 16, Rate: rate, Speedup: sp})
				row = append(row, sp)
			}
			t.AddRow(row...)
		}
	}
	return pts, t.String() + "\npaper: task replication is highly scalable for distributed applications\n", nil
}

// AblationRow compares selection policies on one benchmark.
type AblationRow struct {
	Policy         string
	PctTasks       float64
	UnprotectedFIT float64
	WithinBudget   bool
}

// Ablation compares App_FIT with its revocable variant, the offline knapsack
// oracle, random selection and the trivial policies, all at 10× rates on
// the given benchmark's simulator job (program-order decisions).
func Ablation(benchName string, scale workload.Scale) ([]AblationRow, string, error) {
	w, err := bench.ByName(benchName)
	if err != nil {
		return nil, "", err
	}
	job := w.BuildJob(scale, 1, workload.DefaultCostModel())
	base := fit.Roadrunner()
	est1 := fit.NewEstimator(base)
	estK := fit.NewEstimator(base.Scale(10))
	tasks := make([]fit.Task, len(job.Tasks))
	threshold := 0.0
	for i, t := range job.Tasks {
		tasks[i] = estK.Estimate(uint64(i+1), t.ArgBytes)
		threshold += est1.Estimate(uint64(i+1), t.ArgBytes).Total()
	}
	evalSeq := func(sel core.Selector) AblationRow {
		unprot := 0.0
		reps := 0
		for _, tk := range tasks {
			d := sel.Decide(tk)
			sel.Observe(tk, d)
			if d {
				reps++
			} else {
				unprot += tk.Total()
			}
		}
		return AblationRow{
			Policy:         sel.Name(),
			PctTasks:       100 * float64(reps) / float64(len(tasks)),
			UnprotectedFIT: unprot,
			WithinBudget:   unprot <= threshold*1.0001,
		}
	}
	var rows []AblationRow
	rows = append(rows, evalSeq(core.NewAppFIT(threshold, len(tasks))))
	rows = append(rows, evalSeq(core.NewAppFITRevocable(threshold, len(tasks))))
	oracle := core.KnapsackOracle(tasks, threshold)
	rows = append(rows, AblationRow{
		Policy:         "knapsack_oracle",
		PctTasks:       100 * float64(oracle.NumReplicated) / float64(len(tasks)),
		UnprotectedFIT: oracle.UnprotectedFIT,
		WithinBudget:   oracle.UnprotectedFIT <= threshold*1.0001,
	})
	rows = append(rows, evalSeq(core.RandomPct{P: 0.9, Seed: 7}))
	rows = append(rows, evalSeq(core.ReplicateAll{}))
	rows = append(rows, evalSeq(core.ReplicateNone{}))
	// Refined rates (§IV-A): a vulnerability analysis that halves the SDC
	// exposure of every even-id task (silent-store masking) feeds App_FIT
	// unchanged and lowers the replication need.
	refined := make([]fit.Task, len(tasks))
	ref := fit.MaskingRefiner{MaskFraction: func(id uint64) float64 {
		if id%2 == 0 {
			return 0.5
		}
		return 0
	}}
	refThr := 0.0
	for i, tk := range tasks {
		refined[i] = ref.Refine(tk)
		refThr += ref.Refine(est1.Estimate(uint64(i+1), job.Tasks[i].ArgBytes)).Total()
	}
	selR := core.NewAppFIT(refThr, len(refined))
	reps, unprot := 0, 0.0
	for _, tk := range refined {
		d := selR.Decide(tk)
		selR.Observe(tk, d)
		if d {
			reps++
		} else {
			unprot += tk.Total()
		}
	}
	rows = append(rows, AblationRow{
		Policy:         "app_fit+masking_refiner",
		PctTasks:       100 * float64(reps) / float64(len(refined)),
		UnprotectedFIT: unprot,
		WithinBudget:   unprot <= refThr*1.0001,
	})
	t := stats.NewTable("policy", "tasks %", "unprotected FIT", "within budget")
	for _, r := range rows {
		t.AddRow(r.Policy, r.PctTasks, fmt.Sprintf("%.4g", r.UnprotectedFIT), r.WithinBudget)
	}
	hdr := fmt.Sprintf("ablation on %s (threshold %.4g FIT = app FIT at 1x, rates at 10x)\n",
		benchName, threshold)
	return rows, hdr + t.String(), nil
}

// SpareCoreSweep is an extra ablation: complete-replication overhead as the
// machine's spare capacity shrinks, showing why replicas-on-spare-cores is
// cheap at 16 cores (Figure 4's premise) and expensive when saturated.
func SpareCoreSweep(eng *sweep.Engine, benchName string, scale workload.Scale) (string, error) {
	w, err := bench.ByName(benchName)
	if err != nil {
		return "", err
	}
	p := sweep.Prepare(w.BuildJob(scale, 1, workload.DefaultCostModel()))
	cores := []int{2, 4, 8, 16, 32}
	var reqs []sweep.Request
	for _, c := range cores {
		reqs = append(reqs,
			p.Request(cluster.Config{Nodes: 1, CoresPerNode: c}),
			p.Request(cluster.Config{Nodes: 1, CoresPerNode: c, Replicated: p.AllReplicated()}))
	}
	resps, err := eng.RunBatch(context.Background(), reqs)
	if err != nil {
		return "", fmt.Errorf("experiments: spare-core sweep: %w", err)
	}
	t := stats.NewTable("cores", "base ms", "replicated ms", "overhead %")
	for i, c := range cores {
		base, repl := resps[2*i].Result, resps[2*i+1].Result
		t.AddRow(c, base.Makespan.Seconds()*1e3, repl.Makespan.Seconds()*1e3,
			repl.OverheadPct(base))
	}
	return t.String(), nil
}

// ThresholdSweep characterizes how the replicated fraction responds to the
// user's reliability target: for threshold = m × (application FIT at 1×
// rates) with task rates at 10×, the FIT-mass needing protection is
// 1 − m/10. The paper omits its absolute thresholds (§V-A1 footnote), so
// this sweep is the sensitivity analysis that locates any reported
// replication fraction — including the headline 53% — on the curve.
func ThresholdSweep(benchName string, scale workload.Scale) (string, error) {
	w, err := bench.ByName(benchName)
	if err != nil {
		return "", err
	}
	job := w.BuildJob(scale, 1, workload.DefaultCostModel())
	base := fit.Roadrunner()
	est1 := fit.NewEstimator(base)
	estK := fit.NewEstimator(base.Scale(10))
	appFIT := 0.0
	tasks := make([]fit.Task, len(job.Tasks))
	for i, t := range job.Tasks {
		appFIT += est1.Estimate(uint64(i+1), t.ArgBytes).Total()
		tasks[i] = estK.Estimate(uint64(i+1), t.ArgBytes)
	}
	t := stats.NewTable("threshold multiplier", "tasks replicated %", "oracle %", "unprotected/threshold")
	for _, m := range []float64{0.5, 1, 2, 3, 4, 5, 6, 8, 10} {
		thr := appFIT * m
		sel := core.NewAppFIT(thr, len(tasks))
		reps, unprot := 0, 0.0
		for _, tk := range tasks {
			d := sel.Decide(tk)
			sel.Observe(tk, d)
			if d {
				reps++
			} else {
				unprot += tk.Total()
			}
		}
		oracle := core.KnapsackOracle(tasks, thr)
		t.AddRow(fmt.Sprintf("%.1f", m),
			100*float64(reps)/float64(len(tasks)),
			100*float64(oracle.NumReplicated)/float64(len(tasks)),
			unprot/thr)
	}
	hdr := fmt.Sprintf("threshold sweep on %s (app FIT at 1x = %.4g; task rates at 10x)\n", benchName, appFIT)
	return hdr + t.String(), nil
}
