// Reliability targets: run the Cholesky benchmark under App_FIT with a
// range of user-specified FIT thresholds and watch the replicated fraction
// respond — the paper's core usage scenario ("users can set the desired
// reliability in FIT that their application requires", §I).
//
//	go run ./examples/reliability_target
package main

import (
	"fmt"
	"log"

	"appfit/internal/bench/cholesky"
	"appfit/internal/bench/workload"
	"appfit/internal/core"
	"appfit/internal/fit"
	"appfit/internal/rt"
	"appfit/internal/trace"
)

func main() {
	w := cholesky.Workload
	scale := workload.Tiny
	base := fit.Roadrunner()

	// Dry pass: learn the task count and the application's FIT at 1×.
	tr := trace.New()
	dry := rt.New(rt.Config{Workers: 2, Rates: base, RatesSet: true, Tracer: tr})
	verify := w.BuildRT(dry, scale)
	if err := dry.Shutdown(); err != nil {
		log.Fatal(err)
	}
	if err := verify(); err != nil {
		log.Fatal(err)
	}
	n := tr.Len()
	appFIT := 0.0
	for _, rec := range tr.Records() {
		appFIT += rec.FITDue + rec.FITSdc
	}
	fmt.Printf("cholesky/%s: %d tasks, application FIT at 1x rates: %.4g\n\n", scale, n, appFIT)
	fmt.Printf("%-22s %-18s %-16s %s\n", "threshold (FIT)", "tasks replicated", "unprotected FIT", "within target")

	// Sweep targets from very strict (1% of today's FIT) to fully relaxed
	// (10× today's FIT covers the 10×-scaled rates with no replication).
	for _, m := range []float64{0.01, 0.1, 0.5, 1, 2, 5, 10} {
		threshold := appFIT * m
		sel := core.NewAppFIT(threshold, n)
		r := rt.New(rt.Config{
			Workers:  2,
			Selector: sel,
			Rates:    base.Scale(10), RatesSet: true,
		})
		verify := w.BuildRT(r, scale)
		if err := r.Shutdown(); err != nil {
			log.Fatal(err)
		}
		if err := verify(); err != nil {
			log.Fatal(err)
		}
		st := r.Stats()
		fmt.Printf("%-22s %-18s %-16s %v\n",
			fmt.Sprintf("%.4g (%gx app FIT)", threshold, m),
			fmt.Sprintf("%d/%d (%.0f%%)", st.Replicated, n, st.PctTasksReplicated()),
			fmt.Sprintf("%.4g", sel.CurrentFIT()),
			sel.CurrentFIT() <= threshold*1.0001)
	}
	fmt.Println("\nstricter targets replicate more; a 10x-relaxed target needs no replication at all")
}
