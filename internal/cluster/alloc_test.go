package cluster_test

import (
	"testing"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/fault"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
	"appfit/internal/xrand"
)

// TestRunAllocationsDoNotGrowWithTasks: a Run allocates its scratch — the
// state, layout and queue slices, the engine, the network's link tables, the
// result — and nothing per task or per event: the same ceiling holds for a
// 650-task and a 10 000-task replicated job (10 884 and 120 016 allocations
// before events became values).
func TestRunAllocationsDoNotGrowWithTasks(t *testing.T) {
	w, err := bench.ByName("linpack")
	if err != nil {
		t.Fatal(err)
	}
	linpack := w.BuildJob(workload.Small, 16, workload.DefaultCostModel())
	chain := cluster.Job{Name: "chain-10k"}
	r := xrand.New(1)
	for i := 0; i < 10000; i++ {
		task := cluster.Task{Node: i % 16, Cost: simtime.Time(100 + r.Intn(1000))}
		if i > 16 {
			task.Deps, task.DepBytes = []int{i - 16}, []int64{1024}
		}
		chain.Tasks = append(chain.Tasks, task)
	}
	for _, c := range []struct {
		job cluster.Job
		cfg cluster.Config
	}{
		{linpack, cluster.Config{Nodes: 16, CoresPerNode: 16, ReplicaCores: 16, Replicated: cluster.All(len(linpack.Tasks))}},
		{chain, cluster.Config{Nodes: 16, CoresPerNode: 4, Replicated: cluster.All(len(chain.Tasks))}},
	} {
		if n := testing.AllocsPerRun(3, func() {
			if _, err := cluster.Run(c.job, c.cfg); err != nil {
				t.Fatal(err)
			}
		}); n > 100 {
			t.Errorf("%s (%d tasks): %v allocations a Run, want ≤ 100", c.job.Name, len(c.job.Tasks), n)
		}
	}
}

// TestPreparedRunAllocatesNothing: a Layout keeps its run scratch, so once
// warmed a Run allocates nothing — on the distributed shape replicated on
// spare cores, under fixed-rate faults, and on a placed topology.
func TestPreparedRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops scratch at random")
	}
	build := func(name string, nodes int) cluster.Job {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w.BuildJob(workload.Small, nodes, workload.DefaultCostModel())
	}
	placed, err := simnet.MarenostrumTopology(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	linpack, stream, cholesky := build("linpack", 16), build("stream", 1), build("cholesky", 4)
	for _, c := range []struct {
		job cluster.Job
		cfg cluster.Config
	}{
		{linpack, cluster.Config{Nodes: 16, CoresPerNode: 16, ReplicaCores: 16, Replicated: cluster.All(len(linpack.Tasks))}},
		{stream, cluster.Config{Nodes: 1, CoresPerNode: 16, Replicated: cluster.All(len(stream.Tasks)), Injector: fault.NewFixedRate(42, 0.01, 0.01)}},
		{cholesky, cluster.Config{Nodes: 4, CoresPerNode: 4, Replicated: cluster.All(len(cholesky.Tasks)), Topo: placed}},
	} {
		l, err := cluster.NewLayout(c.job, c.cfg.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(5, func() {
			if _, err := l.Run(c.cfg); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations a warmed Layout.Run, want 0", c.job.Name, n)
		}
	}
}
