// Command experiments regenerates the paper's tables and figures, one per
// entry of experiments.Registry:
//
//	experiments [flags] [name ...]   the named figures (default: all)
//	experiments -h                   the flags and every figure's name
//
// Names: table1, fig1–fig6, fig4rt (Figure 4 measured on the real runtime),
// ablation, sweep, sparecores and reliability (on -bench), and the
// distributed topology and kernels tables; `all` is every one.
//
// Flags: -scale tiny|small|medium, -workers N, -repeats N, -bench name, plus
// the sweep engine's -parallel (simulation workers) and -cache
// (results-cache entries). Every named figure's simulations run through one
// engine as one batch, so runs shared between figures hit the cache or
// coalesce instead of re-simulating; a failed simulation exits non-zero
// naming the figure and the request.
package main

import (
	"flag"
	"fmt"
	"os"

	"appfit/internal/bench/workload"
	"appfit/internal/experiments"
	"appfit/internal/sweep"
)

func main() {
	p := experiments.DefaultParams()
	scaleFlag := flag.String("scale", p.Scale.String(), "problem scale: tiny, small or medium")
	flag.IntVar(&p.Workers, "workers", p.Workers, "worker threads for real-runtime experiments")
	flag.IntVar(&p.Repeats, "repeats", p.Repeats, "repetitions for averaged experiments (paper uses 10)")
	flag.StringVar(&p.Bench, "bench", p.Bench, "benchmark for ablation/sweep/sparecores/reliability")
	parallel := flag.Int("parallel", 0, "sweep workers for simulator experiments (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache", 0, "results-cache entries (0 = default, negative disables)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: experiments [flags] [name ...]\n\nnames:\n")
		for _, f := range experiments.Registry {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", f.Name, f.Title)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "  %-12s every figure above\n\nflags:\n", "all")
		flag.PrintDefaults()
	}
	flag.Parse()

	var err error
	if p.Scale, err = workload.ParseScale(*scaleFlag); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	names := flag.Args()
	all := len(names) == 0 || len(names) == 1 && names[0] == "all"
	figs := experiments.Registry
	if !all {
		figs = nil
		for _, name := range names {
			f, ok := experiments.Lookup(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
				os.Exit(2)
			}
			figs = append(figs, f)
		}
	}

	eng := sweep.New(sweep.Options{Workers: *parallel, CacheEntries: *cacheEntries})
	if err := experiments.Run(eng, p, figs, func(_ experiments.Figure, out string) { fmt.Print(out) }); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if all {
		st := eng.Stats()
		fmt.Printf("sweep engine: %d runs, %d hits (%.0f%%), %d coalesced, %d cached entries\n",
			st.Requests, st.Hits, st.HitRate(), st.Coalesced, st.Entries)
	}
}
