// Command replicate runs the task-replication overhead and scalability
// experiments for a single benchmark on the virtual cluster (the per-
// benchmark view of Figures 4-6):
//
//	replicate -bench nbody -scale small -nodes 4,8,16,32,64 -cores 16 -rate 1e-3
//
// It prints, for each machine size: fault-free and replicated makespans,
// overhead, speedup and recovery activity. The runs execute on the sweep
// engine (-parallel workers, -cache entries); -csv dumps the per-request
// stage timings and -check-cache re-runs the whole sweep to prove the
// second pass is served from the cache with an identical table — the
// `make check-sweep` gate. A failed simulation exits non-zero naming the
// request that failed; a partial table is never printed as success.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/fault"
	"appfit/internal/stats"
	"appfit/internal/sweep"
)

func main() {
	benchName := flag.String("bench", "stream", "benchmark name")
	scaleFlag := flag.String("scale", "small", "tiny, small or medium")
	nodesFlag := flag.String("nodes", "1", "comma-separated node counts")
	cores := flag.Int("cores", 16, "cores per node")
	rate := flag.Float64("rate", 0, "per-execution fault probability (split evenly DUE/SDC)")
	seed := flag.Uint64("seed", 42, "fault injection seed")
	parallel := flag.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache", 0, "results-cache entries (0 = default, negative disables)")
	csvPath := flag.String("csv", "", "write per-request stage timings (CSV) to this file")
	checkCache := flag.Bool("check-cache", false,
		"run the sweep twice and require the second pass ≥90% cache hits with an identical table")
	flag.Parse()

	if err := checkRate(*rate); err != nil {
		fatal(err)
	}
	scale, err := workload.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	w, err := bench.ByName(*benchName)
	if err != nil {
		fatal(err)
	}
	var nodeCounts []int
	for _, s := range strings.Split(*nodesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad node count %q", s))
		}
		nodeCounts = append(nodeCounts, n)
	}

	// The sweep batch: per node count a fault-free base run and a
	// complete-replication run, in table-row order.
	cm := workload.DefaultCostModel()
	var reqs []sweep.Request
	for _, nodes := range nodeCounts {
		p := sweep.Prepare(w.BuildJob(scale, nodes, cm))
		cfg := cluster.Config{Nodes: nodes, CoresPerNode: *cores}
		if *rate > 0 {
			cfg.Injector = fault.NewFixedRate(*seed, *rate/2, *rate/2)
		}
		cfgR := cfg
		cfgR.Replicated = p.AllReplicated()
		reqs = append(reqs, p.Request(cfg), p.Request(cfgR))
	}

	eng := sweep.New(sweep.Options{Workers: *parallel, CacheEntries: *cacheEntries})
	resps, err := eng.RunBatch(context.Background(), reqs)
	if err != nil {
		fatal(err)
	}
	table := render(nodeCounts, *cores, resps)
	fmt.Printf("%s at %s scale, complete replication, fault rate %g (%d workers)\n",
		w.Name(), scale, *rate, eng.Workers())
	fmt.Println(table)

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := sweep.WriteMetricsCSV(f, sweep.BatchMetrics(resps)); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *checkCache {
		before := eng.Stats()
		again, err := eng.RunBatch(context.Background(), reqs)
		if err != nil {
			fatal(err)
		}
		after := eng.Stats()
		hits := after.Hits - before.Hits
		hitRate := 100 * float64(hits) / float64(len(reqs))
		if hitRate < 90 {
			fatal(fmt.Errorf("check-cache: second pass hit %d of %d requests (%.0f%%, need ≥90%%)",
				hits, len(reqs), hitRate))
		}
		if warm := render(nodeCounts, *cores, again); warm != table {
			fatal(fmt.Errorf("check-cache: cached table differs from the first pass\nfirst:\n%s\nsecond:\n%s", table, warm))
		}
		fmt.Printf("check-cache: %d/%d second-pass hits (%.0f%%), tables identical\n", hits, len(reqs), hitRate)
	}
}

// render turns the batch responses (base, replicated per node count) into
// the overhead/speedup table. Bitwise-identical responses render to a
// bitwise-identical string, which is what -check-cache compares.
func render(nodeCounts []int, cores int, resps []sweep.Response) string {
	t := stats.NewTable("nodes", "cores", "base ms", "repl ms", "overhead %",
		"speedup", "reexecs", "sdc", "due")
	var base0 cluster.Result
	for i, nodes := range nodeCounts {
		baseRes, replRes := resps[2*i].Result, resps[2*i+1].Result
		if i == 0 {
			base0 = replRes
		}
		t.AddRow(nodes, nodes*cores,
			baseRes.Makespan.Seconds()*1e3,
			replRes.Makespan.Seconds()*1e3,
			replRes.OverheadPct(baseRes),
			replRes.Speedup(base0),
			replRes.Reexecutions, replRes.SDCDetected, replRes.DUERecovered)
	}
	return t.String()
}

// checkRate applies the rule appfitd applies to a job spec's rate: NaN
// would run fault-free and 1 or more would fault every execution.
func checkRate(rate float64) error {
	if !(rate >= 0 && rate < 1) {
		return fmt.Errorf("replicate: -rate %g outside [0, 1)", rate)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
