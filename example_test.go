package appfit_test

import (
	"context"
	"fmt"

	"appfit"
)

// Example shows the basic dataflow submission pattern: two tasks chained by
// an inout dependency on region "A" and an independent task on "B".
func Example() {
	r := appfit.New(appfit.Config{Workers: 2})
	a := appfit.F64{1}
	b := appfit.F64{10}
	incr := func(ctx *appfit.Ctx) { ctx.F64(0)[0]++ }
	r.Submit("A1", incr, appfit.Inout("A", a))
	r.Submit("A2", incr, appfit.Inout("A", a))
	r.Submit("B", incr, appfit.Inout("B", b))
	if err := r.Shutdown(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(a[0], b[0])
	// Output: 3 11
}

// ExampleNewAppFIT shows the paper's usage scenario: a FIT threshold that
// keeps today's reliability while error rates are 10× higher, with the
// heuristic choosing which tasks to replicate.
func ExampleNewAppFIT() {
	const tasks = 100
	const bytesPerTask = 1 << 20
	rates := appfit.Roadrunner()
	threshold := rates.TotalFIT(bytesPerTask * tasks) // app FIT at 1× rates
	sel := appfit.NewAppFIT(threshold, tasks)

	r := appfit.New(appfit.Config{
		Workers:  2,
		Selector: sel,
		Rates:    rates.Scale(10), RatesSet: true,
	})
	for i := 0; i < tasks; i++ {
		buf := appfit.NewF64(bytesPerTask / 8)
		r.Submit("work", func(ctx *appfit.Ctx) {
			x := ctx.F64(0)
			x[0]++
		}, appfit.Inout(fmt.Sprintf("T%d", i), buf))
	}
	if err := r.Shutdown(); err != nil {
		fmt.Println("error:", err)
		return
	}
	st := r.Stats()
	fmt.Printf("replicated %d of %d tasks, unprotected FIT within threshold: %v\n",
		st.Replicated, tasks, sel.CurrentFIT() <= threshold)
	// Output: replicated 90 of 100 tasks, unprotected FIT within threshold: true
}

// ExampleNewWorld shows the distributed (OmpSs+MPI style) substrate: two
// ranks exchanging a block through dependency-gated send/receive tasks on
// the world communicator.
func ExampleNewWorld() {
	w := appfit.NewWorld(appfit.WorldConfig{Ranks: 2})
	c := w.Comm()
	src := appfit.F64{42}
	dst := appfit.NewF64(1)
	c.Rank(0).Send(1, 0, "s", src)
	c.Rank(1).Recv(0, 0, "d", dst)
	if err := w.Shutdown(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(dst[0])
	// Output: 42
}

// ExampleComm_Split derives two isolated sub-communicators by color and
// runs a reduction in each: comm ranks are densely re-numbered by key, the
// groups share a tag, and the private matching context of each group
// guarantees their traffic can never cross.
func ExampleComm_Split() {
	w := appfit.NewWorld(appfit.WorldConfig{Ranks: 4})
	colors := []int{0, 1, 0, 1} // evens and odds
	keys := []int{0, 0, 1, 1}
	subs, err := w.Comm().Split(colors, keys)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	vals := []appfit.F64{{1}, {10}, {2}, {20}}
	subs[0].AllreduceSum(0, "s", []appfit.F64{vals[0], vals[2]})
	subs[1].AllreduceSum(0, "s", []appfit.F64{vals[1], vals[3]})
	if err := w.Shutdown(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(vals[0][0], vals[1][0], vals[2][0], vals[3][0])
	// Output: 3 30 3 30
}

// ExampleBlockTopology places a four-rank World two ranks per node and
// prices the same reduction's traffic on the placed fabric: the
// communicator auto-selects the hierarchical allreduce (node-local fold →
// leader exchange → node-local fan-out), so only one full vector crosses
// the node boundary in each direction while the node-mates trade over the
// memory bus.
func ExampleBlockTopology() {
	topo, err := appfit.BlockTopology(4, 2, appfit.MemoryBusNet(), appfit.MarenostrumNet())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sim := appfit.NewSimTopologyTransport(topo)
	w := appfit.NewWorld(appfit.WorldConfig{Ranks: 4, Topology: topo, Transport: sim})
	vals := []appfit.F64{{1}, {2}, {3}, {4}}
	w.Comm().AllreduceSum(0, "s", vals)
	if err := w.Shutdown(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("hierarchical:", w.Comm().Hierarchical())
	fmt.Println("sum:", vals[0][0], "wire bytes:", sim.WireBytes())
	// Output:
	// hierarchical: true
	// sum: 10 wire bytes: 16
}

// ExampleNewWorld_pingpong is a deterministic miniature of
// examples/hybrid_pingpong: two ranks relax a block toward each other's
// state and exchange it every iteration under selective replication with
// seeded fault injectors. Communication tasks gate on the dataflow
// dependencies and are never replicated, so exactly ranks × iters messages
// cross the wire.
func ExampleNewWorld_pingpong() {
	const iters = 4
	w := appfit.NewWorld(appfit.WorldConfig{
		Ranks: 2,
		RT: func(rank int) appfit.Config {
			return appfit.Config{
				Workers:  2,
				Selector: appfit.NewAppFIT(0, iters), // zero budget: protect every compute task
				Injector: appfit.NewSeededInjector(uint64(rank) + 1),
			}
		},
	})
	c := w.Comm()
	local := []appfit.F64{{0}, {100}}
	remote := []appfit.F64{appfit.NewF64(1), appfit.NewF64(1)}
	for it := 0; it < iters; it++ {
		for rk := 0; rk < 2; rk++ {
			rk := rk
			c.Rank(rk).Runtime().Submit("relax", func(ctx *appfit.Ctx) {
				ctx.F64(0)[0] = (ctx.F64(0)[0] + ctx.F64(1)[0]) / 2
			}, appfit.Inout("local", local[rk]), appfit.In("remote", remote[rk]))
			c.Rank(rk).Send(1-rk, it, "local", local[rk])
			c.Rank(rk).Recv(1-rk, it, "remote", remote[rk])
		}
	}
	if err := w.Shutdown(); err != nil {
		fmt.Println("error:", err)
		return
	}
	st := w.Stats()
	fmt.Printf("converged: %v %v\n", local[0][0], local[1][0])
	fmt.Printf("replicated %d of %d compute tasks, messages sent: %d\n",
		st.Replicated, 2*iters, w.MessagesSent())
	// Output:
	// converged: 25 25
	// replicated 8 of 8 compute tasks, messages sent: 8
}

// ExamplePrepareJob sweeps one job over four machine configurations. The
// job is prepared once, so each request's cache key costs a hash of its
// config, not of the task list — and resubmitting the batch is answered
// entirely from the engine's cache.
func ExamplePrepareJob() {
	p := appfit.PrepareJob(appfit.SimJob{Name: "fork", Tasks: []appfit.SimTask{
		{Label: "a", Cost: 100},
		{Label: "b", Cost: 300, Deps: []int{0}},
		{Label: "c", Cost: 300, Deps: []int{0}},
	}})
	var reqs []appfit.SweepRequest
	for cores := 1; cores <= 2; cores++ {
		reqs = append(reqs,
			p.Request(appfit.SimConfig{CoresPerNode: cores}),
			p.Request(appfit.SimConfig{CoresPerNode: cores, Replicated: p.AllReplicated()}))
	}
	eng := appfit.NewSweep(appfit.SweepOptions{})
	for pass := 0; pass < 2; pass++ {
		resps, err := eng.RunBatch(context.Background(), reqs)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		for _, r := range resps {
			fmt.Print(int64(r.Result.Makespan), " ")
		}
		fmt.Println("hits:", eng.Stats().Hits)
	}
	// Output:
	// 700 1400 400 700 hits: 0
	// 700 1400 400 700 hits: 4
}
