package main

import (
	"context"
	"strconv"
	"time"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/ckpt"
	"appfit/internal/cluster"
	"appfit/internal/core"
	"appfit/internal/deps"
	"appfit/internal/dist"
	"appfit/internal/experiments"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/sched"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
	"appfit/internal/sweep"
	"appfit/internal/vote"
)

// The unit costs: public-call micro-loops run by the traced pass, at the
// shapes the workloads use, for the layers too fine to span from outside.
// Each is the median of five timings of a fixed loop.

// sink keeps the compiler from discarding a micro-loop's result.
var sink any

// perCall times loop, which makes n calls, five times and returns the median
// nanoseconds per call. prepare runs untimed before each timing.
func perCall(n int, prepare func(), loop func()) float64 {
	var ns []float64
	for rep := 0; rep < 5; rep++ {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		loop()
		ns = append(ns, float64(time.Since(t0))/float64(n))
	}
	return median(ns)
}

// argSet is the argument shape of a stream task at Small: 24 KB of float64.
const argSetKB = 24

func argSet() []buffer.Buffer {
	b := buffer.NewF64(argSetKB * 1024 / 8)
	for i := range b {
		b[i] = float64(i)
	}
	return []buffer.Buffer{b}
}

// taskUnits prices the per-task bookkeeping of the runtime path: deps,
// sched, core and fit. rt-plain is where they show.
func taskUnits(m map[string]float64) {
	const n = 4096
	acc := make([][]deps.Access, 64)
	for i := range acc {
		acc[i] = []deps.Access{{Key: "r" + strconv.Itoa(i), Mode: deps.Inout}}
	}
	var tr *deps.Tracker
	m["deps.register_ns"] = perCall(n, func() { tr = deps.NewTracker() }, func() {
		for i := 1; i <= n; i++ {
			tr.Register(uint64(i), acc[i%len(acc)])
		}
	})
	m["deps.complete_ns"] = perCall(n, func() {
		tr = deps.NewTracker()
		for i := 1; i <= n; i++ {
			tr.Register(uint64(i), acc[i%len(acc)])
		}
	}, func() {
		for i := 1; i <= n; i++ {
			sink = tr.Complete(uint64(i))
		}
	})

	pool := sched.NewPool(1)
	m["sched.submit_get_ns"] = perCall(n, nil, func() {
		for i := 1; i <= n; i++ {
			pool.Submit(0, uint64(i))
			pool.Get(0)
		}
	})
	batch := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	m["sched.submit_batch_ns"] = perCall(n, nil, func() {
		for i := 0; i < n/len(batch); i++ {
			pool.SubmitBatch(0, batch)
			for range batch {
				pool.Get(0)
			}
		}
	})
	pool.Close()

	est := fit.NewEstimator(fit.Roadrunner())
	const stream = 5000
	tasks := make([]fit.Task, stream)
	threshold := 0.0
	m["fit.estimate_ns"] = perCall(stream, nil, func() {
		for i := range tasks {
			tasks[i] = est.Estimate(uint64(i+1), argSetKB*1024)
		}
	})
	for _, t := range tasks {
		threshold += t.Total()
	}
	m["core.decide_observe_ns"] = perCall(stream, nil, func() {
		sel := core.NewAppFIT(threshold/10, stream)
		for _, t := range tasks {
			sel.Observe(t, sel.Decide(t))
		}
	})
}

// replicaUnits prices the replication engine's data movement per KB of
// task arguments: checkpoint, clone, compare, vote. rt-replicate is where
// they show.
func replicaUnits(m map[string]float64) {
	const n = 256
	perKB := func(ns float64) float64 { return ns / argSetKB }
	a, b, c := argSet(), argSet(), argSet()

	store := ckpt.NewStore(1)
	m["ckpt.save_ns_per_kb"] = perKB(perCall(n, nil, func() {
		for i := 0; i < n; i++ {
			store.Save(1, a)
			store.Release(1)
		}
	}))
	store.Save(1, a)
	m["ckpt.restore_ns_per_kb"] = perKB(perCall(n, nil, func() {
		for i := 0; i < n; i++ {
			sink = store.Restore(1, b)
		}
	}))
	m["vote.equal_ns_per_kb"] = perKB(perCall(n, nil, func() {
		for i := 0; i < n; i++ {
			sink = vote.Bitwise{}.Equal(a, b)
		}
	}))
	// The recovery shape: the first result differs in its last word, so the
	// vote reads all three sets before the second pair agrees.
	bad := argSet()
	last := bad[0].(buffer.F64)
	last[len(last)-1]++
	m["vote.majority_ns_per_kb"] = perKB(perCall(n, nil, func() {
		for i := 0; i < n; i++ {
			sink, _ = vote.Majority2of3(vote.Bitwise{}, bad, b, c)
		}
	}))
	m["buffer.clone_ns_per_kb"] = perKB(perCall(n, nil, func() {
		for i := 0; i < n; i++ {
			sink = a[0].Clone()
		}
	}))
	pool := buffer.NewPool()
	m["buffer.pool_get_put_ns"] = perCall(n, nil, func() {
		for i := 0; i < n; i++ {
			pool.PutF64(pool.GetF64(argSetKB * 1024 / 8))
		}
	})
}

// simUnits prices the simulator's inner steps: one discrete event, one
// network send, one fault draw. They reach the end-to-end numbers through
// cluster.Run, on serve-miss and figures.
func simUnits(m map[string]float64) {
	const n = 8192
	const pending = 1024
	eng := simtime.New()
	nop := func() {}
	for i := 0; i < pending; i++ {
		eng.At(simtime.Time(i), nop)
	}
	m["simtime.event_ns"] = perCall(n, nil, func() {
		for i := 0; i < n; i++ {
			eng.After(pending, nop)
			eng.Step()
		}
	})
	neteng := simtime.New()
	net := simnet.New(neteng, simnet.Marenostrum())
	m["simnet.send_ns"] = perCall(n, nil, func() {
		for i := 0; i < n; i++ {
			net.Send(i%4, (i+1)%4, 4096, nop)
			neteng.Step()
		}
	})
	inj := fault.NewFixedRate(1, 0.005, 0.005)
	m["fault.draw_ns"] = perCall(n, nil, func() {
		for i := 0; i < n; i++ {
			sink = inj.Draw(uint64(i+1), 0, 0, 0)
		}
	})
}

// wireUnits prices one message of the collective path below the runtime:
// the Sim transport's meter charge and the Direct rendezvous.
func wireUnits(m map[string]float64, topo *simnet.Topology) {
	const n = 8192
	meter := simnet.NewMeter(topo)
	ranks := topo.Ranks()
	m["simnet.charge_ns"] = perCall(n, nil, func() {
		for i := 0; i < n; i++ {
			sink = meter.Charge(i%ranks, (i+17)%ranks, 1024)
		}
	})
	d := dist.NewDirect()
	match := dist.Match{Src: 0, Dst: 1, Tag: 7}
	payload := buffer.NewF64(16)
	m["dist.direct_pingpong_ns"] = perCall(n, nil, func() {
		for i := 0; i < n; i++ {
			d.Send(match, payload)
			sink, _ = d.Recv(match)
		}
	})
	d.Close()
}

// jobNodes is the machine every workload builds a Table-I job for: the
// paper's distributed benchmarks on four nodes, the rest on one.
func jobNodes(w workload.Workload) int {
	if w.Distributed() {
		return 4
	}
	return 1
}

// builderUnits times building the nine Table-I jobs at Small — what a
// figure round and a daemon's first request of each shape pay.
func builderUnits(m map[string]float64) {
	cm := workload.DefaultCostModel()
	m["bench.build_job_ms"] = perCall(1, nil, func() {
		for _, w := range bench.All() {
			sink = w.BuildJob(workload.Small, jobNodes(w), cm)
		}
	}) / 1e6
}

// batchUnits compares the Fig-4 batch through a fresh one-worker engine's
// RunBatch with a serial loop of cluster.Run over the same requests: the
// engine's miss-path overhead (keys, singleflight, cache insert, result
// clone), which a second worker would hide. It also yields the cluster
// layer's per-run numbers on a fixed, fault-free batch.
func batchUnits(m map[string]float64) error {
	reqs := experiments.Fig4Requests(workload.Small, bench.All())
	var batchMS, serialMS, runUS []float64
	var results []cluster.Result
	tasks := 0
	for rep := 0; rep < 5; rep++ {
		eng := sweep.New(sweep.Options{Workers: -1})
		t0 := time.Now()
		if _, err := eng.RunBatch(context.Background(), reqs); err != nil {
			return err
		}
		batchMS = append(batchMS, float64(time.Since(t0))/float64(time.Millisecond))

		results = results[:0]
		t0 = time.Now()
		for _, r := range reqs {
			t1 := time.Now()
			res, err := cluster.Run(r.Job, r.Config)
			if err != nil {
				return err
			}
			runUS = append(runUS, float64(time.Since(t1))/float64(time.Microsecond))
			tasks += len(r.Job.Tasks)
			results = append(results, res)
		}
		serialMS = append(serialMS, float64(time.Since(t0))/float64(time.Millisecond))
	}
	m["sweep.run_batch_ms_p50"] = median(batchMS)
	m["sweep.batch_overhead_pct"] = 100 * (ratio(median(batchMS), median(serialMS)) - 1)
	clusterMetrics(m, runUS, tasks, results)
	return nil
}

// clusterMetrics reports the cluster layer from timed cluster.Run calls:
// runUS are the host times of the runs that simulated tasks tasks in all,
// results the fixed set the exact counters are summed over.
func clusterMetrics(m map[string]float64, runUS []float64, tasks int, results []cluster.Result) {
	m["cluster.run_us_p50"] = median(runUS)
	m["cluster.run_us_per_task"] = ratio(sum(runUS), float64(tasks))
	m["cluster.runs"] = float64(len(results))
	for _, r := range results {
		m["cluster.reexecutions"] += float64(r.Reexecutions)
		m["cluster.sdc_detected"] += float64(r.SDCDetected)
		m["cluster.due_recovered"] += float64(r.DUERecovered)
		m["cluster.messages"] += float64(r.Messages)
		m["cluster.virtual_ms_sum"] += r.Makespan.Seconds() * 1e3
	}
	m["cluster.tasks_per_run"] = ratio(float64(tasks), float64(len(runUS)))
}
