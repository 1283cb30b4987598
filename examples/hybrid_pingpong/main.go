// Hybrid dataflow + message passing (the paper's OmpSs+MPI model, §III):
// four ranks, each its own dataflow runtime, compute under App_FIT selective
// replication with injected faults and exchange halo blocks with their pair
// partner every iteration. The pattern itself is the reusable
// internal/bench/workload halo exchange, built against the communicator
// API: communication tasks gate on the dataflow dependencies, overlapping
// transfers with computation, and are never replicated (a replica would
// duplicate the message).
//
//	go run ./examples/hybrid_pingpong
package main

import (
	"fmt"
	"log"

	"appfit/internal/bench/workload"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/place"
	"appfit/internal/rt"
	"appfit/internal/simnet"
)

const (
	ranks = 4
	n     = 4096
	iters = 8
)

func main() {
	rates := fit.Roadrunner().Scale(10)
	// Per-rank task count: 1 compute per iteration.
	selectors := make([]*core.AppFIT, ranks)
	w := dist.NewWorld(dist.Config{
		Ranks: ranks,
		RT: func(rank int) rt.Config {
			perTask := rates.TotalFIT(n * 8)
			thr := perTask * iters / 10 // keep today's reliability at 10× rates
			selectors[rank] = core.NewAppFIT(thr, iters)
			inj := fault.NewSeeded(uint64(rank) + 1)
			inj.Boost = 1e9 // make FIT-scale faults observable in a demo
			return rt.Config{
				Workers:  2,
				Selector: selectors[rank],
				Rates:    rates, RatesSet: true,
				Injector: inj,
			}
		},
	})

	h, err := workload.BuildHalo(w.Comm(), workload.HaloConfig{Iters: iters, N: n})
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Shutdown(); err != nil {
		log.Fatal(err)
	}
	if err := h.Verify(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-6s %-12s %-12s %-22s %s\n", "rank", "replicated", "faults", "unprotected FIT", "local[0]")
	for rk := 0; rk < ranks; rk++ {
		st := w.Rank(rk).Stats()
		fmt.Printf("%-6d %-12s %-12s %-22s %.4f\n", rk,
			fmt.Sprintf("%d/%d", st.Replicated, iters),
			fmt.Sprintf("sdc:%d due:%d", st.SDCRecovered, st.DUERecovered),
			fmt.Sprintf("%.3g <= %.3g", selectors[rk].CurrentFIT(), selectors[rk].Threshold()),
			h.Local[rk][0])
	}
	// The ranks share the World's one buffer pool, so its traffic — message
	// payloads and every rank's attempt copies — is the World's to report,
	// once.
	pool := w.Stats().Pool
	fmt.Printf("world pool: %d leases, %d reused a returned buffer (%.1f%%)\n",
		pool.Leases, pool.Hits, 100*float64(pool.Hits)/float64(max(pool.Leases, 1)))
	fmt.Printf("messages sent: %d (= ranks × iters; replication never duplicated one)\n",
		w.MessagesSent())

	fmt.Println()
	placementDemo()
}

// placementDemo prices the same halo pattern on a placed fabric under two
// placements: partners as node-mates (every exchange rides the memory bus)
// versus partners split across nodes (every exchange crosses InfiniBand
// and all of it funnels through one pair of cables). The old flat network
// model charged both identically; the topology meter separates them — and
// since PR 5 the loop closes: the terrible placement's recorded traffic
// profile is handed to the placement optimizer, which finds its way back
// to the co-located assignment instead of leaving the diagnosis on the
// table.
func placementDemo() {
	intra, inter := simnet.MemoryBus(), simnet.Marenostrum()
	run := func(nodeOf []int, prof *place.Profile) *dist.Sim {
		topo, err := simnet.NewTopology(nodeOf, intra, inter)
		if err != nil {
			log.Fatal(err)
		}
		sim := dist.NewSimTopology(topo)
		sim.Record(prof) // nil = just price, don't profile
		w := dist.NewWorld(dist.Config{Ranks: ranks, Transport: sim, Topology: topo})
		if _, err := workload.BuildHalo(w.Comm(), workload.HaloConfig{Iters: iters, N: n}); err != nil {
			log.Fatal(err)
		}
		if err := w.Shutdown(); err != nil {
			log.Fatal(err)
		}
		return sim
	}
	// Partners are comm rank ^ 1: {0,1} and {2,3}. Good placement puts
	// each pair on one node; the bad one splits every pair across nodes.
	// The bad run records the traffic profile the optimizer searches with.
	good := run([]int{0, 0, 1, 1}, nil)
	prof := place.NewProfile(ranks)
	bad := run([]int{0, 1, 0, 1}, prof)
	fmt.Println("placement pricing (same halo traffic on the placed fabric):")
	fmt.Printf("  pairs co-located:  %8d wire bytes, %8.2f µs virtual\n",
		good.WireBytes(), good.Now().Seconds()*1e6)
	fmt.Printf("  pairs split:       %8d wire bytes, %8.2f µs virtual\n",
		bad.WireBytes(), bad.Now().Seconds()*1e6)
	fmt.Printf("  a bad placement is now %.0f× more expensive in virtual time\n",
		bad.Now().Seconds()/good.Now().Seconds())

	// Close the loop: optimize the terrible placement against its own
	// recorded profile (machine shape derived from it: 2 ranks per node),
	// then actually run the halo on the optimized topology.
	res, err := place.Optimize(prof, bad.Topology(), place.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	opt := run(nodeOfSlice(res.Topo), nil)
	fmt.Printf("  optimized (from split, %d evals): %d wire bytes, %8.2f µs virtual — recovered the co-located plan\n",
		res.Evals(), opt.WireBytes(), opt.Now().Seconds()*1e6)
	if opt.Now() != good.Now() || opt.WireBytes() != good.WireBytes() {
		log.Fatalf("optimizer failed to recover the good placement: %v µs vs %v µs",
			opt.Now().Seconds()*1e6, good.Now().Seconds()*1e6)
	}
}

// nodeOfSlice flattens a topology back to its placement slice.
func nodeOfSlice(t *simnet.Topology) []int {
	nodeOf := make([]int, t.Ranks())
	for r := range nodeOf {
		nodeOf[r] = t.NodeOf(r)
	}
	return nodeOf
}
