package experiments

import (
	"strings"
	"testing"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/fit"
	"appfit/internal/sweep"
)

// testEngine builds a fresh sweep engine per test so cache stats never leak
// across tests.
func testEngine() *sweep.Engine { return sweep.New(sweep.Options{}) }

func TestTable1ListsAllBenchmarks(t *testing.T) {
	out := Table1(workload.Tiny)
	for _, w := range bench.All() {
		if !strings.Contains(out, w.Name()) {
			t.Fatalf("table1 missing %s:\n%s", w.Name(), out)
		}
	}
	if !strings.Contains(out, "12800x12800") {
		t.Fatal("table1 missing paper sizes")
	}
}

func TestFig1DataflowWins(t *testing.T) {
	out := Fig1(testEngine())
	if !strings.Contains(out, "dataflow") || !strings.Contains(out, "fork-join") {
		t.Fatalf("fig1 output:\n%s", out)
	}
	if !strings.Contains(out, "sooner") {
		t.Fatalf("fig1 must quantify the dataflow advantage:\n%s", out)
	}
}

func TestFig2ShowsFullRecoverySequence(t *testing.T) {
	out := Fig2()
	for _, ev := range []string{"checkpointed", "replica_created", "compared",
		"sdc_detected", "restored", "reexecuted", "voted"} {
		if !strings.Contains(out, ev) {
			t.Fatalf("fig2 missing %q:\n%s", ev, out)
		}
	}
	if !strings.Contains(out, "result intact: true") {
		t.Fatalf("fig2 recovery failed:\n%s", out)
	}
}

func TestFig3ContractAndOrdering(t *testing.T) {
	rows, out, err := Fig3(workload.Tiny, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("expected 9 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.VerifyOK {
			t.Fatalf("%s: numeric verification failed under App_FIT", r.Bench)
		}
		if r.Achieved10 > r.Threshold*1.001 {
			t.Fatalf("%s: 10x unprotected FIT %g exceeds threshold %g", r.Bench, r.Achieved10, r.Threshold)
		}
		if r.Achieved5 > r.Threshold*1.001 {
			t.Fatalf("%s: 5x unprotected FIT %g exceeds threshold %g", r.Bench, r.Achieved5, r.Threshold)
		}
		// Takeaway-1: complete replication is not required; 5× needs no
		// more than 10× (small-sample tolerance of 15 points).
		if r.PctTasks10 >= 99.9 {
			t.Fatalf("%s: App_FIT degenerated to complete replication", r.Bench)
		}
		if r.PctTasks5 > r.PctTasks10+15 {
			t.Fatalf("%s: 5x replicated more than 10x (%g vs %g)", r.Bench, r.PctTasks5, r.PctTasks10)
		}
	}
	if !strings.Contains(out, "AVERAGE") {
		t.Fatal("fig3 table missing average row")
	}
}

func TestFig4OverheadsBounded(t *testing.T) {
	rows, out, err := Fig4(testEngine(), workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("expected 9 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.OverheadPct < -1 {
			t.Fatalf("%s: negative overhead %g", r.Bench, r.OverheadPct)
		}
		if r.OverheadPct > 120 {
			t.Fatalf("%s: overhead %g%% implausible with spare replica cores", r.Bench, r.OverheadPct)
		}
		// App_FIT's selective set must not cost more than complete
		// replication (it replicates a subset).
		if r.AppFITPct > r.OverheadPct+1 {
			t.Fatalf("%s: selective overhead %g above complete %g", r.Bench, r.AppFITPct, r.OverheadPct)
		}
	}
	if !strings.Contains(out, "AVERAGE") {
		t.Fatal("fig4 missing average")
	}
}

func TestFig4RTSetsMeasuredBesideSimulated(t *testing.T) {
	rows, out, err := Fig4RT(workload.Tiny, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Tasks == 0 || r.PlainMs <= 0 || r.ReplMs <= 0 {
			t.Fatalf("%s: nothing measured: %+v", r.Bench, r)
		}
		// The measured column is wall clock and asserts nothing; the
		// simulated ones are deterministic: spare cores can only help.
		if r.SimSparePct < -1 || r.SimSharedPct < r.SimSparePct {
			t.Fatalf("%s: simulated overheads %g%% shared, %g%% spare", r.Bench, r.SimSharedPct, r.SimSparePct)
		}
		if !strings.Contains(out, r.Bench) {
			t.Fatalf("table misses %s:\n%s", r.Bench, out)
		}
	}
}

func TestFig5SpeedupsMonotone(t *testing.T) {
	pts, _, err := Fig5(testEngine(), workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	last := map[string]float64{}
	for _, p := range pts {
		key := p.Bench + ":" + itoa(int(p.Rate*1e6))
		if p.Cores == 1 {
			if p.Speedup != 1 {
				t.Fatalf("%s: 1-core speedup %g", p.Bench, p.Speedup)
			}
			last[key] = 1
			continue
		}
		if p.Speedup < last[key]*0.95 {
			t.Fatalf("%s rate %g: speedup dropped %g -> %g", p.Bench, p.Rate, last[key], p.Speedup)
		}
		last[key] = p.Speedup
	}
}

func TestFig6SpeedupsReasonable(t *testing.T) {
	pts, _, err := Fig6(testEngine(), workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Speedup <= 0 {
			t.Fatalf("%s: non-positive speedup", p.Bench)
		}
		if p.Cores == 64 && p.Speedup != 1 {
			t.Fatalf("%s: baseline speedup %g", p.Bench, p.Speedup)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func TestSelectAppFITContract(t *testing.T) {
	w, err := bench.ByName("cholesky")
	if err != nil {
		t.Fatal(err)
	}
	job := w.BuildJob(workload.Tiny, 1, workload.DefaultCostModel())
	sel := SelectAppFIT(job, 10)
	if len(sel) != len(job.Tasks) {
		t.Fatal("selection length mismatch")
	}
	// Recompute the unprotected FIT and check it against the threshold.
	base := fit.Roadrunner()
	est1 := fit.NewEstimator(base)
	estK := fit.NewEstimator(base.Scale(10))
	thr, unprot := 0.0, 0.0
	for i, task := range job.Tasks {
		thr += est1.Estimate(uint64(i+1), task.ArgBytes).Total()
		if !sel[i] {
			unprot += estK.Estimate(uint64(i+1), task.ArgBytes).Total()
		}
	}
	if unprot > thr*1.0001 {
		t.Fatalf("unprotected %g exceeds threshold %g", unprot, thr)
	}
	reps := 0
	for _, s := range sel {
		if s {
			reps++
		}
	}
	if reps == 0 || reps == len(sel) {
		t.Fatalf("degenerate selection: %d of %d", reps, len(sel))
	}
}

func TestAblationOrdering(t *testing.T) {
	rows, out, err := Ablation("cholesky", workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	or, ok := byName["knapsack_oracle"]
	if !ok {
		t.Fatalf("missing oracle row:\n%s", out)
	}
	af := byName["app_fit"]
	if !af.WithinBudget || !or.WithinBudget {
		t.Fatal("app_fit and oracle must satisfy the budget")
	}
	if or.PctTasks > af.PctTasks+1e-9 {
		t.Fatalf("oracle replicated more than the heuristic: %g vs %g", or.PctTasks, af.PctTasks)
	}
	if byName["replicate_all"].PctTasks != 100 {
		t.Fatal("replicate_all must be 100%")
	}
	if byName["replicate_none"].PctTasks != 0 {
		t.Fatal("replicate_none must be 0%")
	}
	if byName["replicate_none"].WithinBudget {
		t.Fatal("replicate_none cannot satisfy a 10x budget")
	}
}

func TestThresholdSweepMonotone(t *testing.T) {
	out, err := ThresholdSweep("stream", workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "threshold multiplier") {
		t.Fatalf("sweep output:\n%s", out)
	}
}

func TestSpareCoreSweep(t *testing.T) {
	out, err := SpareCoreSweep(testEngine(), "stream", workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "overhead") {
		t.Fatalf("sweep output:\n%s", out)
	}
	if _, err := SpareCoreSweep(testEngine(), "nope", workload.Tiny); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}
