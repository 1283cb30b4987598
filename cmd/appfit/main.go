// Command appfit runs one Table-I benchmark on the real dataflow runtime
// under a chosen replication policy and prints the replication, fault and
// checkpoint statistics — the single-benchmark view of the paper's Figure 3
// experiment.
//
//	appfit -bench cholesky -scale small -policy app_fit -rate-scale 10 -workers 4
//
// Policies: app_fit, all, none, random. With app_fit the
// threshold defaults to the application's estimated FIT at today's (1×)
// rates, preserving current reliability under the scaled error rates.
package main

import (
	"flag"
	"fmt"
	"os"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/rt"
	"appfit/internal/trace"
)

func main() {
	benchName := flag.String("bench", "cholesky", "benchmark name (see cmd/experiments table1)")
	scaleFlag := flag.String("scale", "small", "tiny, small or medium")
	policy := flag.String("policy", "app_fit", "app_fit, all, none or random")
	rateScale := flag.Float64("rate-scale", 10, "error-rate multiplier (10 = pessimistic exascale)")
	threshold := flag.Float64("threshold", 0, "FIT threshold (0 = application FIT at 1x rates)")
	randomP := flag.Float64("p", 0.5, "probability for the random policy")
	workers := flag.Int("workers", 4, "worker threads")
	injectSeed := flag.Uint64("inject", 0, "if nonzero, seed a fault injector at the estimated rates ×1e12")
	ratesLog := flag.String("rates-log", "", "failure-history file (footprint_bytes hours dues sdcs per line) to estimate node rates from instead of the Roadrunner anchor")
	timeline := flag.Bool("timeline", false, "print the fault-event timeline")
	csvPath := flag.String("csv", "", "write the per-task trace as CSV to this file")
	byLabel := flag.Bool("by-label", false, "print per-kernel aggregation (count, replicated, time, FIT)")
	flag.Parse()

	scale, err := workload.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	w, err := bench.ByName(*benchName)
	if err != nil {
		fatal(err)
	}

	base := fit.Roadrunner()
	if *ratesLog != "" {
		f, err := os.Open(*ratesLog)
		if err != nil {
			fatal(err)
		}
		entries, err := fit.ParseLog(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		base, err = fit.FromLog(entries)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("rates from log  %s\n", base)
	}

	// Dry pass: task count and application FIT at 1× rates.
	tr := trace.New()
	dry := rt.New(rt.Config{Workers: *workers, Rates: base, RatesSet: true, Tracer: tr})
	_ = w.BuildRT(dry, scale)
	if err := dry.Shutdown(); err != nil {
		fatal(err)
	}
	n := tr.Len()
	appFIT := 0.0
	for _, rec := range tr.Records() {
		appFIT += rec.FITDue + rec.FITSdc
	}
	thr := *threshold
	if thr == 0 {
		thr = appFIT
	}

	var sel core.Selector
	switch *policy {
	case "app_fit":
		sel = core.NewAppFIT(thr, n)
	case "all":
		sel = core.ReplicateAll{}
	case "none":
		sel = core.ReplicateNone{}
	case "random":
		sel = core.RandomPct{P: *randomP, Seed: 1}
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	cfg := rt.Config{
		Workers: *workers, Selector: sel,
		Rates: base.Scale(*rateScale), RatesSet: true,
	}
	runTrace := trace.New()
	cfg.Tracer = runTrace
	if *injectSeed != 0 {
		inj := fault.NewSeeded(*injectSeed)
		inj.Boost = 1e12 // FIT-scale probabilities are unobservably small otherwise
		cfg.Injector = inj
	}
	r := rt.New(cfg)
	verify := w.BuildRT(r, scale)
	if err := r.Shutdown(); err != nil {
		fatal(err)
	}
	verr := verify()

	st := r.Stats()
	fmt.Printf("benchmark       %s (%s, %d tasks)\n", w.Name(), scale, n)
	fmt.Printf("policy          %s\n", sel.Name())
	fmt.Printf("rate scale      %gx   threshold %.4g FIT (app FIT at 1x: %.4g)\n", *rateScale, thr, appFIT)
	fmt.Printf("replicated      %d tasks (%.1f%%), %.1f%% of task time\n",
		st.Replicated, st.PctTasksReplicated(), st.PctTimeReplicated())
	if a, ok := sel.(*core.AppFIT); ok {
		fmt.Printf("achieved FIT    %.4g (<= threshold: %v, max transient excess %.3g)\n",
			a.CurrentFIT(), a.CurrentFIT() <= thr*1.0001, a.MaxExcess())
	}
	fmt.Printf("faults          SDC detected %d / recovered %d; DUE recovered %d; unprotected SDC %d DUE %d\n",
		st.SDCDetected, st.SDCRecovered, st.DUERecovered, st.UnprotectedSDC, st.UnprotectedDUE)
	fmt.Printf("checkpoints     %d saves, %.2f MB total, peak %.2f MB\n",
		st.Checkpoint.Saves, float64(st.Checkpoint.BytesSaved)/1e6, float64(st.Checkpoint.PeakLive)/1e6)
	fmt.Printf("buffer pool     %d leases, %d reused a returned buffer (%.1f%%)\n",
		st.Pool.Leases, st.Pool.Hits, 100*float64(st.Pool.Hits)/float64(max(st.Pool.Leases, 1)))
	fmt.Printf("verification    %v\n", errString(verr))
	if *timeline {
		runTrace.WriteTimeline(os.Stdout)
	}
	if *byLabel {
		fmt.Printf("%-14s %-8s %-12s %-14s %s\n", "kernel", "count", "replicated", "time", "FIT")
		for _, ls := range runTrace.ByLabel() {
			fmt.Printf("%-14s %-8d %-12d %-14s %.4g\n",
				ls.Label, ls.Count, ls.Replicated, ls.TotalTime, ls.TotalFIT)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := runTrace.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace csv       %s\n", *csvPath)
	}
	if verr != nil {
		os.Exit(1)
	}
}

func errString(err error) string {
	if err == nil {
		return "PASSED"
	}
	return "FAILED: " + err.Error()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
