// Package appfit's root benchmarks regenerate the paper's evaluation: one
// testing.B target per table and figure (DESIGN.md §4 maps them), plus
// ablation benches for the design choices the paper calls out. Run with
//
//	go test -bench=. -benchmem
//
// Reported custom metrics carry the experiment's headline quantity (e.g.
// pct_tasks_replicated for Figure 3, overhead_pct for Figure 4) so the
// bench output doubles as the experiment record.
package appfit_test

import (
	"fmt"
	"testing"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/experiments"
	"appfit/internal/fit"
	"appfit/internal/stats"
	"appfit/internal/sweep"
)

// freshEngine gives each figure regeneration its own sweep engine so the
// results cache never carries work across iterations — the benchmark keeps
// measuring the full figure, not a cache lookup. BenchmarkSweep (in
// internal/bench/scale) measures the cache itself.
func freshEngine() *sweep.Engine { return sweep.New(sweep.Options{}) }

// BenchmarkTable1Registry measures building every Table-I job DAG.
func BenchmarkTable1Registry(b *testing.B) {
	cm := workload.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		for _, w := range bench.All() {
			nodes := 1
			if w.Distributed() {
				nodes = 4
			}
			job := w.BuildJob(workload.Tiny, nodes, cm)
			if len(job.Tasks) == 0 {
				b.Fatal("empty job")
			}
		}
	}
}

// BenchmarkFig1DataflowVsForkJoin measures the Figure 1 comparison.
func BenchmarkFig1DataflowVsForkJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig1(freshEngine()) == "" {
			b.Fatal("empty fig1")
		}
	}
}

// BenchmarkFig3AppFIT regenerates Figure 3 (one repeat per iteration) and
// reports the average replication fractions.
func BenchmarkFig3AppFIT(b *testing.B) {
	var lastTasks, lastTime float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig3(workload.Tiny, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		var ts, tm []float64
		for _, r := range rows {
			ts = append(ts, r.PctTasks10)
			tm = append(tm, r.PctTime10)
		}
		lastTasks, lastTime = stats.Mean(ts), stats.Mean(tm)
	}
	b.ReportMetric(lastTasks, "pct_tasks_replicated_10x")
	b.ReportMetric(lastTime, "pct_time_replicated_10x")
}

// BenchmarkFig4Overhead regenerates Figure 4 and reports the average
// fault-free complete-replication overhead.
func BenchmarkFig4Overhead(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig4(freshEngine(), workload.Tiny)
		if err != nil {
			b.Fatal(err)
		}
		var ovs []float64
		for _, r := range rows {
			ovs = append(ovs, r.OverheadPct)
		}
		avg = stats.Mean(ovs)
	}
	b.ReportMetric(avg, "overhead_pct")
}

// BenchmarkFig5SharedScaling regenerates Figure 5 and reports the mean
// 16-core fault-free speedup across the shared-memory benchmarks.
func BenchmarkFig5SharedScaling(b *testing.B) {
	var mean16 float64
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.Fig5(freshEngine(), workload.Tiny)
		if err != nil {
			b.Fatal(err)
		}
		var sp []float64
		for _, p := range pts {
			if p.Cores == 16 && p.Rate == 0 {
				sp = append(sp, p.Speedup)
			}
		}
		mean16 = stats.Mean(sp)
	}
	b.ReportMetric(mean16, "speedup_16_cores")
}

// BenchmarkFig6DistScaling regenerates Figure 6 and reports the mean
// 1024-core fault-free speedup over 64 cores.
func BenchmarkFig6DistScaling(b *testing.B) {
	var mean1024 float64
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.Fig6(freshEngine(), workload.Tiny)
		if err != nil {
			b.Fatal(err)
		}
		var sp []float64
		for _, p := range pts {
			if p.Cores == 1024 && p.Rate == 0 {
				sp = append(sp, p.Speedup)
			}
		}
		mean1024 = stats.Mean(sp)
	}
	b.ReportMetric(mean1024, "speedup_1024_over_64")
}

// BenchmarkAblationSelectors regenerates the selection-policy ablation.
func BenchmarkAblationSelectors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Ablation("cholesky", workload.Tiny); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStaleness prices App_FIT's decision-time reservation
// (Decide reserves, Observe settles — §IV-B's contract at any worker
// count) over a sequential pass.
func BenchmarkAblationStaleness(b *testing.B) {
	tasks := make([]fit.Task, 5000)
	total := 0.0
	for i := range tasks {
		tasks[i] = fit.Task{ID: uint64(i + 1), DUE: 1}
		total += 1
	}
	b.Run("app_fit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := core.NewAppFIT(total/10, len(tasks))
			for _, t := range tasks {
				s.Observe(t, s.Decide(t))
			}
		}
	})
}

// BenchmarkHaloWorld drives the reusable workload halo exchange (the
// paper's Figure 6 communication shape) on a real distributed World end to
// end — build, drain, verify against the serial reference — so the
// figure's traffic can be produced by real dist execution, not only the
// cluster simulator.
func BenchmarkHaloWorld(b *testing.B) {
	for _, ranks := range []int{4, 8} {
		ranks := ranks
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			var msgs uint64
			for i := 0; i < b.N; i++ {
				w := dist.NewWorld(dist.Config{Ranks: ranks})
				h, err := workload.BuildHalo(w.Comm(), workload.HaloConfig{Iters: 8, N: 1024})
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Shutdown(); err != nil {
					b.Fatal(err)
				}
				if err := h.Verify(); err != nil {
					b.Fatal(err)
				}
				msgs = w.MessagesSent()
			}
			b.ReportMetric(float64(msgs), "msgs/world")
		})
	}
}
