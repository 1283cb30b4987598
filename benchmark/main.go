// Command benchmark is the repository's end-to-end benchmark: six workloads
// over the service, figure, runtime and collective paths, each measured from
// outside through the layers' public functions (README.md in this directory
// has the workload table, the metric glossary and the measured spreads).
//
//	go run ./benchmark -workload serve-hit -seed 1 -seconds 15 -trace 0
//	go run ./benchmark -seed 1            # all six workloads, untraced
//	go run ./benchmark -repeat 10         # spread of every end-to-end metric
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) prints the per-layer metrics, writes the spans it recorded
// around the calls into each layer to .bench_build/spans-<workload>.jsonl and
// prints the per-layer self-time table. The last line of standard output is
// the result object BENCHMARK.json's contract names; everything meant for a
// human goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// options are one run's settings, shared by every workload.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// quick swaps the exec'd daemon for an in-process server and shrinks
	// every fixed minimum, so the smoke test runs all workloads in seconds.
	quick bool
	// procs is GOMAXPROCS for this process and -workers for appfitd.
	procs int
	log   io.Writer
}

// outcome is what a workload hands back: the failure accounting and every
// metric it measured, keyed by a name declared in metrics.go.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
}

type workloadDef struct {
	name string
	why  string
	run  func(ctx context.Context, o options) (outcome, error)
}

// workloads is the benchmark's table; BENCHMARK.json repeats the names and
// the one-line reasons.
var workloads = []workloadDef{
	{"serve-hit", "repeated keys: per-request service overhead (httpapi, serve, sweep key and cache read) does all the work, cluster none", runServeHit},
	{"serve-miss", "unique keys in batches of 8: cluster.Run does most of the work, queues stand, the cache only writes and evicts", runServeMiss},
	{"figures", "regenerate Fig1/4/5/6 and the spare-core sweep through a fresh engine: sweep.RunBatch and cluster offline, no service layers", runFigures},
	{"rt-plain", "stream, pingpong and cholesky on the real runtime without replication: rt, deps and sched dominate, ckpt and vote are bypassed", runRTPlain},
	{"rt-replicate", "the same three DAGs fully replicated under seeded faults: checkpoint, clone, compare, restore and vote do most of the work", runRTReplicate},
	{"dist-world", "five 64-rank World lifetimes a round (halo, small and large allreduce, allgatherv, cholesky): the collective path", runDistWorld},
}

// result is the object printed as the last line of standard output.
type result struct {
	Workload  string                 `json:"workload,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all six in turn)")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 15, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the span file")
	repeat := fs.Int("repeat", 0, "run the untraced benchmark this many times per workload (seeds seed, seed+1, ...) and report each end-to-end metric's spread against its bound")
	quick := fs.Bool("quick", false, "smoke-test sizes: in-process server, minimal fixed work")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: want -workload NAME -seed N -seconds S -trace 0|1")
		return 2
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}
	if *repeat > 0 {
		if err := runRepeat(ctx, selected, *repeat, *seed, *seconds, stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, log: stderr}
	o.procs = min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(o.procs)
	env, err := json.Marshal(environment(o))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "{\"env\":%s}\n", env)

	code := 0
	for _, w := range selected {
		out, err := w.run(ctx, o)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		res, err := report(w.name, out, o.trace)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if *name != "" {
			res.Workload = "" // the driver's contract: exactly four keys
		}
		printHuman(stderr, w.name, res)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// report turns an outcome into the result object: every declared metric of
// the run's kind, with its unit; a per-layer metric the workload does not
// exercise reads 0, which is also how a bypassed layer shows.
func report(name string, out outcome, traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if out.attempted < 1 {
		return result{}, errors.New("no operation attempted")
	}
	res := result{
		Workload:  name,
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.name] = true
		res.Metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
	}
	for k := range out.metrics {
		if !declared[k] {
			return result{}, fmt.Errorf("metric %q is not declared in metrics.go", k)
		}
	}
	if !traced {
		for _, d := range defs {
			if out.metrics[d.name] <= 0 {
				return result{}, fmt.Errorf("end-to-end metric %s = %v, want > 0", d.name, out.metrics[d.name])
			}
		}
	}
	return res, nil
}

// printHuman lists a result's metrics by name with their units, in the
// declared (layer) order, and the failure share.
func printHuman(w io.Writer, name string, res result) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d (fail share %.4g), correct %v\n",
		name, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Correct)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
}
