// Command experiments regenerates the paper's tables and figures:
//
//	experiments table1              Table I benchmark inventory
//	experiments fig1                dataflow vs fork-join (Figure 1)
//	experiments fig2                replication walk-through (Figure 2)
//	experiments fig3                App_FIT selective replication (Figure 3)
//	experiments fig4                complete-replication overheads (Figure 4)
//	experiments fig4rt              the same overhead measured on the real runtime vs simulated
//	experiments fig5                shared-memory scalability (Figure 5)
//	experiments fig6                distributed scalability (Figure 6)
//	experiments ablation [bench]    selection-policy ablation
//	experiments sweep [bench]       threshold-sensitivity sweep
//	experiments sparecores [bench]  overhead vs spare capacity
//	experiments reliability [bench] corrupted-result counts per policy
//	experiments topology            flat vs hierarchical collectives on the placed fabric
//	experiments placement           random vs block vs optimized rank→node placement
//	experiments kernels             distributed kernels: tree vs Rabenseifner, cholesky flat vs hier, placement
//	experiments all                 everything above
//
// Flags: -scale tiny|small|medium, -workers N, -repeats N, plus the sweep
// engine's -parallel (simulation workers) and -cache (results-cache
// entries). One engine serves every figure, so runs shared between figures
// (and `all`'s repeated sub-experiments) hit the cache instead of
// re-simulating; a failed simulation exits non-zero naming the request.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"appfit/internal/bench/workload"
	"appfit/internal/experiments"
	"appfit/internal/sweep"
)

func main() {
	scaleFlag := flag.String("scale", "small", "problem scale: tiny, small or medium")
	workers := flag.Int("workers", 4, "worker threads for real-runtime experiments")
	repeats := flag.Int("repeats", 3, "repetitions for averaged experiments (paper uses 10)")
	benchName := flag.String("bench", "cholesky", "benchmark for ablation/sweep/sparecores")
	parallel := flag.Int("parallel", 0, "sweep workers for simulator experiments (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache", 0, "results-cache entries (0 = default, negative disables)")
	flag.Parse()

	eng := sweep.New(sweep.Options{Workers: *parallel, CacheEntries: *cacheEntries})

	var scale workload.Scale
	switch *scaleFlag {
	case "tiny":
		scale = workload.Tiny
	case "small":
		scale = workload.Small
	case "medium":
		scale = workload.Medium
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "all"
	}
	run := func(name string) {
		switch name {
		case "table1":
			fmt.Println("=== Table I ===")
			fmt.Println(experiments.Table1(scale))
		case "fig1":
			fmt.Println("=== Figure 1: dataflow vs fork-join ===")
			fmt.Println(experiments.Fig1(eng))
		case "fig2":
			fmt.Println("=== Figure 2: replication design walk-through ===")
			fmt.Println(experiments.Fig2())
		case "fig3":
			fmt.Println("=== Figure 3: App_FIT selective replication ===")
			_, s := experiments.Fig3(experiments.Fig3Config{
				Scale: scale, Workers: *workers, Repeats: *repeats,
			})
			fmt.Println(s)
		case "fig4":
			fmt.Println("=== Figure 4: complete replication overheads ===")
			_, s, err := experiments.Fig4(eng, scale)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(s)
		case "fig4rt":
			procs := runtime.GOMAXPROCS(0)
			fmt.Printf("=== Figure 4 cross-check: complete replication on the real runtime vs simulated (%d workers on %d CPUs, %d repeats) ===\n",
				procs, runtime.NumCPU(), *repeats)
			_, s, err := experiments.Fig4RT(scale, procs, *repeats)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(s)
		case "fig5":
			fmt.Println("=== Figure 5: shared-memory scalability ===")
			_, s, err := experiments.Fig5(eng, scale)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(s)
		case "fig6":
			fmt.Println("=== Figure 6: distributed scalability ===")
			_, s, err := experiments.Fig6(eng, scale)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(s)
		case "ablation":
			fmt.Println("=== Ablation: selection policies ===")
			_, s, err := experiments.Ablation(*benchName, scale)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(s)
		case "sweep":
			fmt.Println("=== Threshold sensitivity sweep ===")
			s, err := experiments.ThresholdSweep(*benchName, scale)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(s)
		case "reliability":
			fmt.Println("=== Reliability under accelerated fault injection ===")
			_, s, err := experiments.Reliability(*benchName, scale, *repeats*5, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(s)
		case "sparecores":
			fmt.Println("=== Overhead vs spare capacity ===")
			s, err := experiments.SpareCoreSweep(eng, *benchName, scale)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(s)
		case "topology":
			fmt.Println("=== Topology: flat vs hierarchical collectives (64 ranks, 16/node) ===")
			_, s, err := experiments.TopologyTable(64, 16, 4096)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(s)
		case "placement":
			fmt.Println("=== Placement search: random vs block vs optimized (64 ranks, 16/node) ===")
			_, s, err := experiments.PlacementTable(64, 16, 4096, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(s)
		case "kernels":
			fmt.Println("=== Distributed kernels: tree vs Rabenseifner, cholesky flat vs hier, placement (64 ranks, 16/node) ===")
			_, s, err := experiments.KernelsTable(64, 16, 32768, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(s)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	if cmd == "all" {
		for _, n := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig4rt", "fig5", "fig6", "ablation", "sweep", "sparecores", "reliability", "topology", "placement", "kernels"} {
			run(n)
		}
		st := eng.Stats()
		fmt.Printf("sweep engine: %d runs, %d hits (%.0f%%), %d coalesced, %d cached entries\n",
			st.Requests, st.Hits, st.HitRate(), st.Coalesced, st.Entries)
		return
	}
	run(cmd)
}
