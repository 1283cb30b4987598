package scale

import (
	"testing"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/fault"
	"appfit/internal/simtime"
	"appfit/internal/xrand"
)

// chainJob10k is 10 000 tasks in 16 interleaved per-node chains with
// 1 KiB cross-task payloads: the simulator's event loop with almost no DAG.
func chainJob10k() cluster.Job {
	job := cluster.Job{Name: "chain-10k"}
	r := xrand.New(1)
	for i := 0; i < 10000; i++ {
		t := cluster.Task{Node: i % 16, Cost: simtime.Time(100 + r.Intn(1000))}
		if i > 16 {
			t.Deps, t.DepBytes = []int{i - 16}, []int64{1024}
		}
		job.Tasks = append(job.Tasks, t)
	}
	return job
}

// BenchmarkClusterRun is the simulator core's record: one cluster.Run of a
// completely replicated job per iteration. allocs/op is the gated unit — a
// Run allocates its layout and scratch and nothing per task or event, so the
// three rows sit at a few dozen whatever tasks/run says — and vus/op pins
// the makespan each row computes.
//
//   - linpack-small-16n-repl: the distributed shape (16 nodes × 16 cores +
//     16 spares, cross-node panels) — event queue, ready queues, segments
//     and link pricing all busy.
//   - stream-small-1n-repl-faults: the shared-memory shape under 1 % DUE +
//     1 % SDC per execution — the recovery path and the fault draw.
//   - chain-10k: 10 000 tasks, to show the allocation count has no term in
//     the task count.
//
// Each row has a -prepared twin that runs a cluster.Layout built once
// outside the loop — what the sweep engine does for a Prepared job — so
// the pair prices laying a job out and building its scratch (time, bytes
// and allocations) apart from simulating it. A Layout reuses its scratch,
// so the -prepared rows read 0 allocs/op; vus/op must be equal within a
// pair.
func BenchmarkClusterRun(b *testing.B) {
	build := func(name string, nodes int) cluster.Job {
		w, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		return w.BuildJob(workload.Small, nodes, workload.DefaultCostModel())
	}
	linpack, stream, chain := build("linpack", 16), build("stream", 1), chainJob10k()
	for _, c := range []struct {
		name string
		job  cluster.Job
		cfg  cluster.Config
	}{
		{"linpack-small-16n-repl", linpack, cluster.Config{Nodes: 16, CoresPerNode: 16, ReplicaCores: 16}},
		{"stream-small-1n-repl-faults", stream, cluster.Config{Nodes: 1, CoresPerNode: 16, Injector: fault.NewFixedRate(42, 0.01, 0.01)}},
		{"chain-10k", chain, cluster.Config{Nodes: 16, CoresPerNode: 4}},
	} {
		c.cfg.Replicated = cluster.All(len(c.job.Tasks))
		l, err := cluster.NewLayout(c.job, c.cfg.Nodes)
		if err != nil {
			b.Fatal(err)
		}
		for _, arm := range []struct {
			suffix string
			run    func() (cluster.Result, error)
		}{
			{"", func() (cluster.Result, error) { return cluster.Run(c.job, c.cfg) }},
			{"-prepared", func() (cluster.Result, error) { return l.Run(c.cfg) }},
		} {
			b.Run(c.name+arm.suffix, func(b *testing.B) {
				b.ReportAllocs()
				var res cluster.Result
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = arm.run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(c.job.Tasks)), "tasks/run")
				b.ReportMetric(res.Makespan.Seconds()*1e6, "vus/op")
			})
		}
	}
}

// drawSink keeps BenchmarkFaultDraw's draws live.
var drawSink fault.Outcome

// BenchmarkFaultDraw is one fault draw per iteration through the Injector
// interface, as the simulator makes one per execution: fixed-rate is the
// Figure 5/6 injector, seeded the one the real runtime uses. allocs/op
// must be 0.
func BenchmarkFaultDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		inj  fault.Injector
	}{
		{"fixed-rate", fault.NewFixedRate(42, 0.01, 0.01)},
		{"seeded", fault.NewSeeded(42)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink fault.Outcome
			for i := 0; i < b.N; i++ {
				sink += c.inj.Draw(uint64(i), i&3, 0.01, 0.01)
			}
			drawSink = sink
		})
	}
}
