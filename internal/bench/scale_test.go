package bench

import (
	"slices"
	"testing"

	"appfit/internal/bench/workload"
	"appfit/internal/core"
	"appfit/internal/fit"
	"appfit/internal/rt"
	"appfit/internal/stats"
	"appfit/internal/trace"
)

// TestSmallScaleCorrectness runs every workload at the experiment scale
// (thousands of tasks) with verification — slower than the Tiny conformance
// pass, skipped under -short.
func TestSmallScaleCorrectness(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale pass skipped in -short mode")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			r := rt.New(rt.Config{Workers: 4})
			verify := w.BuildRT(r, workload.Small)
			if err := r.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if err := verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGranularityMatchesPaperNarrative checks the workload-shape contrasts
// §V-A1 explains Figure 3 with: "Cholesky, FFT, and Nbody have relatively
// coarser and low number of tasks" while "Stream, Matmul and Perlin have
// high number of finer tasks". Task counts and mean per-task FIT must
// reflect that, and stream's tasks must be near-uniform in FIT.
func TestGranularityMatchesPaperNarrative(t *testing.T) {
	cm := workload.DefaultCostModel()
	shape := func(name string) (count int, meanFIT, skew float64) {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		job := w.BuildJob(workload.Small, 1, cm)
		est := fit.NewEstimator(fit.Roadrunner())
		var fits []float64
		for i, task := range job.Tasks {
			fits = append(fits, est.Estimate(uint64(i+1), task.ArgBytes).Total())
		}
		mean := stats.Mean(fits)
		max := slices.Max(fits)
		if mean == 0 {
			t.Fatalf("%s: zero FIT mass", name)
		}
		return len(job.Tasks), mean, max / mean
	}
	fftCount, fftMean, _ := shape("fft")
	streamCount, streamMean, streamSkew := shape("stream")
	perlinCount, _, _ := shape("perlin")
	if fftCount*10 > streamCount {
		t.Fatalf("FFT must be low-task-count (%d) vs stream (%d)", fftCount, streamCount)
	}
	if fftMean < 5*streamMean {
		t.Fatalf("FFT tasks must be far coarser: mean FIT %g vs stream %g", fftMean, streamMean)
	}
	if perlinCount < 1000 {
		t.Fatalf("perlin must be fine-grained/high-count, got %d tasks", perlinCount)
	}
	if streamSkew > 2 {
		t.Fatalf("stream tasks should be near-uniform in FIT, skew %.1f", streamSkew)
	}
}

// TestSimulatorAndRuntimeAgreeOnAppFIT cross-checks the two engines: the
// program-order App_FIT decisions over the simulator DAG must land within a
// few points of the real runtime's replication fraction for the same
// benchmark and threshold policy.
func TestSimulatorAndRuntimeAgreeOnAppFIT(t *testing.T) {
	for _, name := range []string{"cholesky", "stream"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			base := fit.Roadrunner()

			// Simulator side: program-order decisions over the job DAG.
			job := w.BuildJob(workload.Tiny, 1, workload.DefaultCostModel())
			est1 := fit.NewEstimator(base)
			estK := fit.NewEstimator(base.Scale(10))
			thr := 0.0
			for i, task := range job.Tasks {
				thr += est1.Estimate(uint64(i+1), task.ArgBytes).Total()
			}
			sel := core.NewAppFIT(thr, len(job.Tasks))
			reps := 0
			for i, task := range job.Tasks {
				tk := estK.Estimate(uint64(i+1), task.ArgBytes)
				d := sel.Decide(tk)
				sel.Observe(tk, d)
				if d {
					reps++
				}
			}
			simFrac := 100 * float64(reps) / float64(len(job.Tasks))

			// Runtime side: serial execution so decision order matches
			// program order.
			tr := trace.New()
			dry := rt.New(rt.Config{Workers: 1, Rates: base, RatesSet: true, Tracer: tr})
			_ = w.BuildRT(dry, workload.Tiny)
			if err := dry.Shutdown(); err != nil {
				t.Fatal(err)
			}
			rtThr := 0.0
			for _, rec := range tr.Records() {
				rtThr += rec.FITDue + rec.FITSdc
			}
			rtSel := core.NewAppFIT(rtThr, tr.Len())
			r := rt.New(rt.Config{Workers: 1, Selector: rtSel, Rates: base.Scale(10), RatesSet: true})
			_ = w.BuildRT(r, workload.Tiny)
			if err := r.Shutdown(); err != nil {
				t.Fatal(err)
			}
			rtFrac := r.Stats().PctTasksReplicated()

			diff := simFrac - rtFrac
			if diff < 0 {
				diff = -diff
			}
			// The DAGs are the same but the decisions see the tasks'
			// FITs in a different order, so allow a 15-point band.
			if diff > 15 {
				t.Fatalf("engines disagree: simulator %.1f%%, runtime %.1f%%", simFrac, rtFrac)
			}
		})
	}
}
