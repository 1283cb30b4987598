// Distributed N-body two ways.
//
// Part 1 — the paper's Figure 6 scenario: the same task DAG is scheduled
// over growing virtual machine sizes with complete replication on spare
// cores, with and without injected faults, and the speedup curve is printed.
//
// Part 2 — the same blocked algorithm running for real on the distributed
// World (internal/dist): one rank per block, each rank its own dataflow
// runtime under complete replication with injected faults, over a
// simnet-backed transport that charges every message by placement. The 2×2
// rank grid is placed two ranks per node (simnet.BlockTopology): the
// fabric's meter prices node-mate transfers at memory-bus cost and
// node-crossing ones at Marenostrum InfiniBand cost, serialized per cable.
// The same workload runs twice on that identical placed fabric — once with
// the World kept placement-blind, so every position refresh is the flat
// ring allgather, and once with the topology handed to the World, so the
// communicator auto-selects the hierarchical allgather (node-local ring →
// leader exchange → node-local fan-out). Both runs must match the serial
// reference bitwise — replication recovers every injected fault, the
// communication tasks are never replicated, and the hierarchical route
// moves the same payloads — but the hierarchical one reports a lower
// virtual-time makespan, because only one rank per node crosses the wire.
//
//	go run ./examples/distributed_nbody
package main

import (
	"fmt"
	"log"

	"appfit/internal/bench/nbody"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/simnet"
)

func main() {
	virtualScaling()
	fmt.Println()
	worldRun()
}

func virtualScaling() {
	w := nbody.Workload
	cm := workload.DefaultCostModel()
	const coresPerNode = 16

	fmt.Println("nbody, complete replication, virtual Marenostrum (16 cores/node)")
	fmt.Printf("%-8s %-8s %-14s %-14s %-10s %s\n",
		"nodes", "cores", "makespan(ms)", "faulty(ms)", "speedup", "recoveries")

	var base cluster.Result
	for i, nodes := range []int{1, 2, 4, 8, 16} {
		job := w.BuildJob(workload.Small, nodes, cm)
		repl := cluster.All(len(job.Tasks))

		clean, err := cluster.Run(job, cluster.Config{
			Nodes: nodes, CoresPerNode: coresPerNode, Replicated: repl,
		})
		if err != nil {
			log.Fatal(err)
		}
		faulty, err := cluster.Run(job, cluster.Config{
			Nodes: nodes, CoresPerNode: coresPerNode, Replicated: repl,
			Injector: fault.NewFixedRate(7, 5e-3, 5e-3),
		})
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			base = clean
		}
		fmt.Printf("%-8d %-8d %-14.3f %-14.3f %-10.2f sdc=%d due=%d reexec=%d\n",
			nodes, nodes*coresPerNode,
			clean.Makespan.Seconds()*1e3,
			faulty.Makespan.Seconds()*1e3,
			clean.Speedup(base),
			faulty.SDCDetected, faulty.DUERecovered, faulty.Reexecutions)
	}
	fmt.Println("\nreplication rides the spare cores: the speedup curve tracks the fault-free one")
}

const (
	gridR  = 2 // rank grid rows: two nodes
	gridC  = 2 // rank grid columns: two ranks per node
	ranks  = gridR * gridC
	bodies = 64 // bodies per block
	steps  = 3
)

// nbodyOnWorld runs the blocked n-body for real on a World over the placed
// fabric topo. When placed is true the World knows the topology and its
// allgather goes hierarchical; when false it is placement-blind and uses
// the flat ring — the fabric prices both identically, so the virtual-time
// difference is purely the algorithm's routing. Returns the transport for
// its accounting plus whether the result matches the serial reference
// bitwise.
func nbodyOnWorld(topo *simnet.Topology, placed bool) (*dist.Sim, *dist.World, bool) {
	p := nbody.Params{N: ranks * bodies, B: bodies, Steps: steps}
	sim := dist.NewSimTopology(topo)
	cfg := dist.Config{
		Ranks:     ranks,
		Transport: sim,
		RT: func(rank int) rt.Config {
			return rt.Config{
				Workers:  2,
				Selector: core.ReplicateAll{},
				Injector: fault.NewFixedRate(uint64(rank)*31+3, 0.02, 0.02),
			}
		},
	}
	if placed {
		cfg.Topology = topo
	}
	w := dist.NewWorld(cfg)
	c := w.Comm()

	// Rank rk owns block rk (positions + velocities) and holds ghost copies
	// of every other block's positions, refreshed by one world allgather
	// per step — flat ring or hierarchical, chosen by the communicator.
	pk := func(j int) string { return fmt.Sprintf("pos[%d]", j) }
	pos := make([][]buffer.F64, ranks) // pos[rk][j]: rank rk's copy of block j
	vel := make([]buffer.F64, ranks)
	acc := make([]buffer.F64, ranks)
	pacc := make([][]buffer.F64, ranks) // pacc[rk][j]: partial forces of block j on block rk
	for rk := 0; rk < ranks; rk++ {
		pos[rk] = make([]buffer.F64, ranks)
		pacc[rk] = make([]buffer.F64, ranks)
		for j := 0; j < ranks; j++ {
			pos[rk][j] = buffer.NewF64(3 * bodies)
			pacc[rk][j] = buffer.NewF64(3 * bodies)
		}
		nbody.InitBlock(pos[rk][rk], rk, bodies)
		vel[rk] = buffer.NewF64(3 * bodies)
		acc[rk] = buffer.NewF64(3 * bodies)
	}

	for step := 0; step < steps; step++ {
		// Position refresh: every member's first send reads its own
		// post-integration region, so the exchange gates on the previous
		// step's integrate, whatever route the payloads take.
		bufs := make([][]buffer.Buffer, ranks)
		for rk := 0; rk < ranks; rk++ {
			bufs[rk] = make([]buffer.Buffer, ranks)
			for j := 0; j < ranks; j++ {
				bufs[rk][j] = pos[rk][j]
			}
		}
		c.Allgather(step, pk, bufs)
		for rk := 0; rk < ranks; rk++ {
			for j := 0; j < ranks; j++ {
				j := j
				w.Rank(rk).Runtime().Submit("force", func(ctx *rt.Ctx) {
					nbody.PartialForces(ctx.F64(2), ctx.F64(0), ctx.F64(1), bodies, bodies)
				}, rt.In(pk(rk), pos[rk][rk]), rt.In(pk(j), pos[rk][j]),
					rt.Out(fmt.Sprintf("pacc[%d]", j), pacc[rk][j]))
			}
			args := []rt.Arg{rt.Out("acc", acc[rk])}
			for j := 0; j < ranks; j++ {
				args = append(args, rt.In(fmt.Sprintf("pacc[%d]", j), pacc[rk][j]))
			}
			w.Rank(rk).Runtime().Submit("reduce", func(ctx *rt.Ctx) {
				parts := make([][]float64, ranks)
				for j := 0; j < ranks; j++ {
					parts[j] = ctx.F64(j + 1)
				}
				nbody.Reduce(ctx.F64(0), parts)
			}, args...)
			w.Rank(rk).Runtime().Submit("integrate", func(ctx *rt.Ctx) {
				nbody.Integrate(ctx.F64(0), ctx.F64(1), ctx.F64(2), bodies)
			}, rt.Inout(pk(rk), pos[rk][rk]), rt.Inout("vel", vel[rk]), rt.In("acc", acc[rk]))
		}
	}
	if err := w.Shutdown(); err != nil {
		log.Fatal(err)
	}

	want := nbody.Reference(p)
	exact := true
	for rk := 0; rk < ranks && exact; rk++ {
		for k := 0; k < 3*bodies; k++ {
			if pos[rk][rk][k] != want[rk*3*bodies+k] {
				exact = false
				break
			}
		}
	}
	return sim, w, exact
}

func worldRun() {
	// Place the 2×2 grid two ranks per node: rank pairs {0,1} and {2,3}
	// are node-mates on the memory bus; only node 0 ↔ node 1 traffic pays
	// Marenostrum InfiniBand cost.
	topo, err := simnet.BlockTopology(ranks, gridC, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		log.Fatal(err)
	}
	flatSim, flatW, flatExact := nbodyOnWorld(topo, false)
	hierSim, hierW, hierExact := nbodyOnWorld(topo, true)

	fmt.Printf("nbody on the World: %d×%d rank grid × %d bodies, %d steps, complete replication, injected faults\n",
		gridR, gridC, bodies, steps)
	fmt.Println("placed 2 ranks/node; same fabric priced twice: flat ring allgather vs hierarchical (auto-selected)")
	fmt.Printf("%-6s %-12s %-12s %s\n", "rank", "replicated", "reexecs", "faults recovered")
	for rk := 0; rk < ranks; rk++ {
		st := hierW.Rank(rk).Stats()
		fmt.Printf("%-6d %-12d %-12d sdc:%d due:%d\n", rk,
			st.Replicated, st.Reexecutions, st.SDCRecovered, st.DUERecovered)
	}
	// One pool line per World: the ranks share the World's buffer pool, so
	// payloads and every rank's attempt copies are counted once, by the
	// World. The second World starts on the first one's buffers.
	for _, x := range []struct {
		name string
		w    *dist.World
	}{{"flat", flatW}, {"hierarchical", hierW}} {
		pool := x.w.Stats().Pool
		fmt.Printf("world pool (%s): %d leases, %d reused a returned buffer (%.1f%%)\n",
			x.name, pool.Leases, pool.Hits, 100*float64(pool.Hits)/float64(max(pool.Leases, 1)))
	}
	fmt.Printf("messages sent: %d flat, %d hierarchical (never duplicated by replication)\n",
		flatW.MessagesSent(), hierW.MessagesSent())
	fmt.Printf("flat ring:     %6d bytes over the wire, %7.2f µs of virtual fabric time\n",
		flatSim.WireBytes(), flatSim.Now().Seconds()*1e6)
	fmt.Printf("hierarchical:  %6d bytes over the wire, %7.2f µs of virtual fabric time\n",
		hierSim.WireBytes(), hierSim.Now().Seconds()*1e6)
	fmt.Printf("hierarchical beats flat in virtual time: %v\n", hierSim.Now() < flatSim.Now())
	fmt.Printf("both bitwise identical to serial reference: %v\n", flatExact && hierExact)
}
