// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Table I (benchmark inventory), Figure 1 (dataflow vs
// fork-join), Figure 2 (the replication design walk-through), Figure 3
// (App_FIT selective-replication fractions at 10× and 5× error rates),
// Figure 4 (complete-replication overheads), Figure 5 (shared-memory
// scalability) and Figure 6 (distributed scalability), plus the ablations
// DESIGN.md §4 lists. Each is a Figure in Registry; the exported functions
// return structured rows and the rendered table, cmd/experiments prints
// the registry, and EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
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
	_, s, err := regenerate(eng, "fig1", Params{}, fig1)
	if err != nil {
		return "fig1 error: " + err.Error()
	}
	return s
}

// fig1Requests is Figure 1's pair of runs on two cores: dataflow, then
// fork-join.
func fig1Requests(Params) ([]sweep.Request, error) {
	var reqs []sweep.Request
	for _, forkJoin := range []bool{false, true} {
		j := cluster.Job{Name: "fig1", Tasks: []cluster.Task{
			{Label: "A1", Node: 0, Cost: 100},
			{Label: "A2", Node: 0, Cost: 100, Deps: []int{0}},
			{Label: "B", Node: 0, Cost: 300},
		}}
		if forkJoin {
			j.Tasks[2].Deps = []int{0} // the taskwait barrier orders B after A1
		}
		reqs = append(reqs, sweep.Request{Job: j, Config: cluster.Config{Nodes: 1, CoresPerNode: 2}})
	}
	return reqs, nil
}

func fig1(_ Params, resps []sweep.Response) ([]cluster.Result, string) {
	df, fj := resps[0].Result, resps[1].Result
	t := stats.NewTable("model", "makespan (ns)", "note")
	t.AddRow("dataflow", int64(df.Makespan), "B overlaps A1 (deps inferred from inout)")
	t.AddRow("fork-join", int64(fj.Makespan), "taskwait after A1 blocks independent B")
	return []cluster.Result{df, fj}, t.String() +
		fmt.Sprintf("\ndataflow finishes %.0f%% sooner on 2 cores\n",
			100*(1-float64(df.Makespan)/float64(fj.Makespan)))
}

// Fig2 walks the replication design through a scripted SDC: checkpoint,
// replica, compare, detect, restore, re-execute, vote — the paper's Figure 2
// sequence — and returns the recovery event timeline plus the runtime's
// counters. It runs on one worker (the replica and the re-execution still
// run beside the primary), so the timeline, which names the worker, is a
// pure function of the fault script.
func Fig2() string {
	tr := trace.New()
	inj := fault.NewScript().Set(1, 0, fault.SDC).SetBit(1, 0, 17)
	r := rt.New(rt.Config{Workers: 1, Selector: core.ReplicateAll{}, Injector: inj, Tracer: tr})
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

// Fig3 runs every benchmark under App_FIT at 10× and 5× exascale error
// rates with the threshold pinned to the application's FIT at today's (1×)
// rates, reproducing the paper's headline experiment (§V-A1: on average 53%
// of tasks and 60% of time replicated at 10×; 30% and 36% at 5×). It runs
// on the real runtime with workers workers, averaging each rate over
// repeats runs (the paper averages 10; each repeat reshuffles wall
// timings).
func Fig3(scale workload.Scale, workers, repeats int) ([]Fig3Row, string, error) {
	var rows []Fig3Row
	for _, w := range bench.All() {
		row, err := fig3One(w, scale, workers, max(repeats, 1))
		if err != nil {
			return nil, "", fmt.Errorf("experiments: fig3: %s: %w", w.Name(), err)
		}
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
	return rows, t.String(), nil
}

// fig3One runs the dry pass (per-task FITs at 1× → threshold and N) and the
// two App_FIT passes for one benchmark.
func fig3One(w workload.Workload, scale workload.Scale, workers, repeats int) (Fig3Row, error) {
	n, threshold, verify, err := DryRun(w, scale, workers, fit.Roadrunner())
	if err != nil {
		return Fig3Row{}, err
	}
	row := Fig3Row{Bench: w.Name(), Tasks: n, Threshold: threshold, VerifyOK: verify() == nil}
	run := func(k float64) (pctTasks, pctTime, achieved float64) {
		var pts, ptm []float64
		var ach float64
		for rep := 0; rep < repeats; rep++ {
			sel := core.NewAppFIT(threshold, n)
			r, ok, err := runRT(w, scale, rt.Config{
				Workers: workers, Selector: sel,
				Rates: fit.Roadrunner().Scale(k), RatesSet: true,
			})
			if err != nil {
				continue
			}
			row.VerifyOK = row.VerifyOK && ok
			st := r.Stats()
			pts = append(pts, st.PctTasksReplicated())
			ptm = append(ptm, st.PctTimeReplicated())
			ach = max(ach, sel.CurrentFIT())
		}
		return stats.Mean(pts), stats.Mean(ptm), ach
	}
	row.PctTasks10, row.PctTime10, row.Achieved10 = run(10)
	row.PctTasks5, row.PctTime5, row.Achieved5 = run(5)
	return row, nil
}

// runRT runs w once on a fresh runtime under cfg and reports the runtime
// and whether its result verified.
func runRT(w workload.Workload, scale workload.Scale, cfg rt.Config) (*rt.Runtime, bool, error) {
	r := rt.New(cfg)
	verify := w.BuildRT(r, scale)
	if err := r.Shutdown(); err != nil {
		return r, false, err
	}
	return r, verify() == nil, nil
}

// DryRun runs w unreplicated under rates on workers workers and returns its
// task count, the application's FIT under rates (summed in task-id order;
// at 1× rates it is the App_FIT threshold that keeps today's reliability)
// and the run's verifier, for a caller that wants the check.
func DryRun(w workload.Workload, scale workload.Scale, workers int, rates fit.Rates) (n int, appFIT float64, verify workload.Verifier, err error) {
	tr := trace.New()
	r := rt.New(rt.Config{Workers: workers, Rates: rates, RatesSet: true, Tracer: tr})
	verify = w.BuildRT(r, scale)
	if err := r.Shutdown(); err != nil {
		return 0, 0, nil, err
	}
	for _, rec := range tr.Records() {
		appFIT += rec.FITDue + rec.FITSdc
	}
	return tr.Len(), appFIT, verify, nil
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
	return fig4Batch(runtime.GOMAXPROCS(0), scale, ws)
}

func fig4Requests(p Params) ([]sweep.Request, error) {
	return fig4Batch(p.builders, p.Scale, bench.All()), nil
}

func fig4Batch(workers int, scale workload.Scale, ws []workload.Workload) []sweep.Request {
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
		cfgSel := cfgAll
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
	return regenerate(eng, "fig4", Params{Scale: scale}, fig4)
}

func fig4(_ Params, resps []sweep.Response) ([]Fig4Row, string) {
	t := stats.NewTable("benchmark", "base ms", "repl ms", "overhead %", "app_fit overhead %")
	var rows []Fig4Row
	var ovs []float64
	for i, w := range bench.All() {
		base, repl, sel := resps[3*i].Result, resps[3*i+1].Result, resps[3*i+2].Result
		r := Fig4Row{
			Bench:       w.Name(),
			BaseMs:      base.Makespan.Seconds() * 1e3,
			ReplMs:      repl.Makespan.Seconds() * 1e3,
			OverheadPct: repl.OverheadPct(base),
			AppFITPct:   sel.OverheadPct(base),
		}
		rows = append(rows, r)
		t.AddRow(r.Bench, r.BaseMs, r.ReplMs, r.OverheadPct, r.AppFITPct)
		ovs = append(ovs, r.OverheadPct)
	}
	t.AddRow("AVERAGE", "", "", stats.Mean(ovs), "")
	return rows, t.String()
}

// SelectAppFIT runs the App_FIT decision sequence over a simulator job in
// program order (threshold = application FIT at 1× rates, task rates at k×)
// and returns the per-task replication choices. This is the bridge that
// lets the virtual-time engine run under the paper's heuristic.
func SelectAppFIT(job cluster.Job, k float64) []bool {
	n := len(job.Tasks)
	choices, _, _ := inOrder(core.NewAppFIT(totalFIT(n, fitAt(job, 1)), n), n, fitAt(job, k))
	return choices
}

// fitAt estimates job's task i at k× the Roadrunner rates (id i+1, as on
// the runtime). Callers walk the tasks through it instead of holding a
// slice of estimates, so a Figure-4 selection allocates only its choices.
func fitAt(job cluster.Job, k float64) func(i int) fit.Task {
	est := fit.NewEstimator(fit.Roadrunner().Scale(k))
	return func(i int) fit.Task { return est.Estimate(uint64(i+1), job.Tasks[i].ArgBytes) }
}

// totalFIT is the FIT of tasks 0..n-1, summed in program order.
func totalFIT(n int, task func(int) fit.Task) (sum float64) {
	for i := 0; i < n; i++ {
		sum += task(i).Total()
	}
	return sum
}

// inOrder runs sel over tasks 0..n-1 in program order, each Decide followed
// by its Observe, and returns the choices, how many replicate and the FIT
// left unprotected.
func inOrder(sel core.Selector, n int, task func(int) fit.Task) (choices []bool, reps int, unprot float64) {
	choices = make([]bool, n)
	for i := range choices {
		t := task(i)
		choices[i] = sel.Decide(t)
		sel.Observe(t, choices[i])
		if choices[i] {
			reps++
		} else {
			unprot += t.Total()
		}
	}
	return choices, reps, unprot
}

// collect is tasks 0..n-1 as a slice, for the knapsack oracle.
func collect(n int, task func(int) fit.Task) []fit.Task {
	out := make([]fit.Task, n)
	for i := range out {
		out[i] = task(i)
	}
	return out
}

func pct(part, whole int) float64 { return 100 * float64(part) / float64(whole) }

// ScalingPoint is one (cores, fault-rate) speedup measurement.
type ScalingPoint struct {
	Bench   string
	Cores   int
	Rate    float64
	Speedup float64
}

// machine is one simulated machine shape.
type machine struct{ nodes, cores int }

// scaling is the Figures 5 and 6 grid: per benchmark and per-task fault rate,
// one complete-replication run per machine (replicas on as many spare
// cores), each row's first machine its speedup baseline.
type scaling struct {
	benches  func() []workload.Workload
	machines []machine
}

var (
	fig5 = scaling{bench.SharedMemory, []machine{{1, 1}, {1, 2}, {1, 4}, {1, 8}, {1, 16}}}
	fig6 = scaling{bench.DistributedSet, []machine{{4, 16}, {8, 16}, {16, 16}, {32, 16}, {64, 16}}}

	scalingRates = []float64{0, 1e-3, 1e-2}
)

func (s scaling) requests(p Params) ([]sweep.Request, error) {
	cm := workload.DefaultCostModel()
	ws := s.benches()
	var nodes []int // one DAG per (benchmark, node count), for every rate and core count
	for _, m := range s.machines {
		if !slices.Contains(nodes, m.nodes) {
			nodes = append(nodes, m.nodes)
		}
	}
	jobs := buildAll(p.builders, len(ws)*len(nodes), func(i int) *sweep.Prepared {
		return sweep.Prepare(ws[i/len(nodes)].BuildJob(p.Scale, nodes[i%len(nodes)], cm))
	})
	var reqs []sweep.Request
	for wi := range ws {
		for _, rate := range scalingRates {
			for _, m := range s.machines {
				job := jobs[wi*len(nodes)+slices.Index(nodes, m.nodes)]
				cfg := cluster.Config{
					Nodes: m.nodes, CoresPerNode: m.cores, ReplicaCores: m.cores,
					Replicated: job.AllReplicated(),
				}
				if rate > 0 {
					cfg.Injector = fault.NewFixedRate(42, rate/2, rate/2)
				}
				reqs = append(reqs, job.Request(cfg))
			}
		}
	}
	return reqs, nil
}

func (s scaling) reduce(_ Params, resps []sweep.Response) ([]ScalingPoint, string) {
	header := []string{"benchmark", "fault rate"}
	for _, m := range s.machines {
		header = append(header, strconv.Itoa(m.nodes*m.cores))
	}
	t := stats.NewTable(header...)
	var pts []ScalingPoint
	for _, w := range s.benches() {
		for _, rate := range scalingRates {
			base := resps[0].Result
			row := []interface{}{w.Name(), fmt.Sprintf("%g", rate)}
			for _, m := range s.machines {
				sp := resps[0].Result.Speedup(base)
				resps = resps[1:]
				pts = append(pts, ScalingPoint{Bench: w.Name(), Cores: m.nodes * m.cores, Rate: rate, Speedup: sp})
				row = append(row, sp)
			}
			t.AddRow(row...)
		}
	}
	return pts, t.String()
}

// Fig5 reproduces the shared-memory scalability experiment: speedup over 1
// core at 1..16 cores under per-task fault rates {0, low, high} with
// complete task replication (§V-A2, Figure 5). All (benchmark, rate, cores)
// cells execute as one sweep batch; any failed cell fails the figure with
// the request named.
func Fig5(eng *sweep.Engine, scale workload.Scale) ([]ScalingPoint, string, error) {
	return regenerate(eng, "fig5", Params{Scale: scale}, fig5.reduce)
}

// Fig6 reproduces the distributed scalability experiment: speedup over 64
// cores (4 nodes × 16) at up to 1024 cores (64 nodes × 16) under per-task
// fault rates with complete replication (§V-A2, Figure 6), as one batch
// like Fig5.
func Fig6(eng *sweep.Engine, scale workload.Scale) ([]ScalingPoint, string, error) {
	return regenerate(eng, "fig6", Params{Scale: scale}, fig6.reduce)
}

// AblationRow compares selection policies on one benchmark.
type AblationRow struct {
	Policy         string
	PctTasks       float64
	UnprotectedFIT float64
	WithinBudget   bool
}

// jobOf builds the named benchmark's one-node simulator job.
func jobOf(benchName string, scale workload.Scale) (cluster.Job, error) {
	w, err := bench.ByName(benchName)
	if err != nil {
		return cluster.Job{}, err
	}
	return w.BuildJob(scale, 1, workload.DefaultCostModel()), nil
}

// Ablation compares App_FIT with its revocable variant, the offline knapsack
// oracle, random selection and the trivial policies, all at 10× rates on
// the given benchmark's simulator job (program-order decisions).
func Ablation(benchName string, scale workload.Scale) ([]AblationRow, string, error) {
	job, err := jobOf(benchName, scale)
	if err != nil {
		return nil, "", err
	}
	n, one, ten := len(job.Tasks), fitAt(job, 1), fitAt(job, 10)
	threshold := totalFIT(n, one)
	row := func(policy string, reps int, unprot, budget float64) AblationRow {
		return AblationRow{Policy: policy, PctTasks: pct(reps, n), UnprotectedFIT: unprot, WithinBudget: unprot <= budget*1.0001}
	}
	policy := func(sel core.Selector) AblationRow {
		_, reps, unprot := inOrder(sel, n, ten)
		return row(sel.Name(), reps, unprot, threshold)
	}
	oracle := core.KnapsackOracle(collect(n, ten), threshold)
	rows := []AblationRow{
		policy(core.NewAppFIT(threshold, n)),
		policy(core.NewAppFITRevocable(threshold, n)),
		row("knapsack_oracle", oracle.NumReplicated, oracle.UnprotectedFIT, threshold),
		policy(core.RandomPct{P: 0.9, Seed: 7}),
		policy(core.ReplicateAll{}),
		policy(core.ReplicateNone{}),
	}
	// Refined rates (§IV-A): a vulnerability analysis that finds half the
	// SDC exposure of every even-id task masked by silent stores feeds
	// App_FIT unchanged and lowers the replication need. Crash rates are
	// unaffected — a masked bit still crashes the node just as often.
	masked := func(t fit.Task) fit.Task {
		if t.ID%2 == 0 {
			t.SDC *= 0.5
		}
		return t
	}
	refThr := totalFIT(n, func(i int) fit.Task { return masked(one(i)) })
	_, reps, unprot := inOrder(core.NewAppFIT(refThr, n), n, func(i int) fit.Task { return masked(ten(i)) })
	rows = append(rows, row("app_fit+masking_refiner", reps, unprot, refThr))
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
	_, s, err := regenerate(eng, "sparecores", Params{Scale: scale, Bench: benchName}, spareCores)
	return s, err
}

var spareCoreCounts = []int{2, 4, 8, 16, 32}

func spareRequests(p Params) ([]sweep.Request, error) {
	job, err := jobOf(p.Bench, p.Scale)
	if err != nil {
		return nil, err
	}
	prep := sweep.Prepare(job)
	var reqs []sweep.Request
	for _, c := range spareCoreCounts {
		reqs = append(reqs,
			prep.Request(cluster.Config{Nodes: 1, CoresPerNode: c}),
			prep.Request(cluster.Config{Nodes: 1, CoresPerNode: c, Replicated: prep.AllReplicated()}))
	}
	return reqs, nil
}

func spareCores(_ Params, resps []sweep.Response) ([]cluster.Result, string) {
	t := stats.NewTable("cores", "base ms", "replicated ms", "overhead %")
	for i, c := range spareCoreCounts {
		base, repl := resps[2*i].Result, resps[2*i+1].Result
		t.AddRow(c, base.Makespan.Seconds()*1e3, repl.Makespan.Seconds()*1e3,
			repl.OverheadPct(base))
	}
	return nil, t.String()
}

// ThresholdSweep characterizes how the replicated fraction responds to the
// user's reliability target: for threshold = m × (application FIT at 1×
// rates) with task rates at 10×, the FIT-mass needing protection is
// 1 − m/10. The paper omits its absolute thresholds (§V-A1 footnote), so
// this sweep is the sensitivity analysis that locates any reported
// replication fraction — including the headline 53% — on the curve.
func ThresholdSweep(benchName string, scale workload.Scale) (string, error) {
	job, err := jobOf(benchName, scale)
	if err != nil {
		return "", err
	}
	n, ten := len(job.Tasks), fitAt(job, 10)
	appFIT, tasks := totalFIT(n, fitAt(job, 1)), collect(n, ten)
	t := stats.NewTable("threshold multiplier", "tasks replicated %", "oracle %", "unprotected/threshold")
	for _, m := range []float64{0.5, 1, 2, 3, 4, 5, 6, 8, 10} {
		thr := appFIT * m
		_, reps, unprot := inOrder(core.NewAppFIT(thr, n), n, ten)
		oracle := core.KnapsackOracle(tasks, thr)
		t.AddRow(fmt.Sprintf("%.1f", m), pct(reps, n), pct(oracle.NumReplicated, n), unprot/thr)
	}
	hdr := fmt.Sprintf("threshold sweep on %s (app FIT at 1x = %.4g; task rates at 10x)\n", benchName, appFIT)
	return hdr + t.String(), nil
}
