package cluster_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/experiments"
	"appfit/internal/fault"
	"appfit/internal/simnet"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/run_golden.txt from this run")

// TestRunGolden pins the complete cluster.Result — makespan, every time
// and recovery counter, network totals and per-node busy time — of 3 132
// runs: every Table-I benchmark at Tiny and Small, on 1 node (shared
// memory) or 4/16/64 nodes (distributed), 1/4/16 cores, replicating none /
// all / the App_FIT(10×) selection, with and without spare cores, at
// fault rates up to 0.2 per class (so multi-round recovery and MaxAttempts
// exhaustion occur), on the flat fabric and on 4-per-machine placements.
// The file was recorded before the simulator core was rewritten (PR 22)
// and is finer than any makespan or counter gate: a change to event tie
// order, scheduling priority or link pricing moves some line of it.
// Regenerate with -update only for a deliberate model change.
//
// A second pass runs the same configs on one Layout per job, so every
// Layout simulates all its configs back to back on reused scratch, and
// diffs them against the same file.
func TestRunGolden(t *testing.T) {
	got := runGolden(t, func(job cluster.Job, _ int) func(cluster.Config) (cluster.Result, error) {
		return func(cfg cluster.Config) (cluster.Result, error) { return cluster.Run(job, cfg) }
	})
	path := filepath.Join("testdata", "run_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "cluster.Run", got, want)
	diffGolden(t, "one Layout per job", runGolden(t, func(job cluster.Job, nodes int) func(cluster.Config) (cluster.Result, error) {
		l, err := cluster.NewLayout(job, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return l.Run
	}), want)
}

// runGolden prints the golden's configs as simulated by the runner that
// prepare returns for each job.
func runGolden(t *testing.T, prepare func(job cluster.Job, nodes int) func(cluster.Config) (cluster.Result, error)) []byte {
	var got bytes.Buffer
	cm := workload.DefaultCostModel()
	for _, w := range bench.All() {
		nodeCounts := []int{1}
		if w.Distributed() {
			nodeCounts = []int{4, 16, 64}
		}
		for _, scale := range []workload.Scale{workload.Tiny, workload.Small} {
			for _, nodes := range nodeCounts {
				job := w.BuildJob(scale, nodes, cm)
				run := prepare(job, nodes)
				topos := []*simnet.Topology{nil}
				if nodes > 1 {
					placed, err := simnet.MarenostrumTopology(nodes, 4)
					if err != nil {
						t.Fatal(err)
					}
					topos = append(topos, placed)
				}
				selections := []struct {
					name string
					repl []bool
				}{
					{"none", nil},
					{"all", cluster.All(len(job.Tasks))},
					{"appfit10", experiments.SelectAppFIT(job, 10)},
				}
				for _, cores := range []int{1, 4, 16} {
					for _, sel := range selections {
						for _, spares := range []int{0, 3} {
							for _, rate := range []float64{0, 0.01, 0.2} {
								for _, topo := range topos {
									cfg := cluster.Config{
										Nodes:        nodes,
										CoresPerNode: cores,
										ReplicaCores: spares,
										Replicated:   sel.repl,
										Topo:         topo,
									}
									if rate > 0 {
										cfg.Injector = fault.NewFixedRate(7, rate, rate)
									}
									res, err := run(cfg)
									if err != nil {
										t.Fatal(err)
									}
									fmt.Fprintf(&got, "%s %s nodes=%d cores=%d repl=%s spares=%d rate=%g placed=%t: %+v\n",
										w.Name(), scale, nodes, cores, sel.name, spares, rate, topo != nil, res)
								}
							}
						}
					}
				}
			}
		}
	}
	return got.Bytes()
}

// diffGolden fails at the first line where got differs from want.
func diffGolden(t *testing.T, pass string, got, want []byte) {
	t.Helper()
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s: result drifted at line %d:\n got  %s\n want %s", pass, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: golden drifted: %d lines, golden has %d", pass, len(gl), len(wl))
	}
}
