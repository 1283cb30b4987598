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
func TestRunGolden(t *testing.T) {
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
									res, err := cluster.Run(job, cfg)
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
	path := filepath.Join("testdata", "run_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("result drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("golden drifted: %d lines, golden has %d", len(gl), len(wl))
	}
}
