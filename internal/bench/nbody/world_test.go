package nbody

import (
	"fmt"
	"testing"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/simnet"
)

// TestWorldMatchesReference runs the blocked algorithm for real on a 2×2
// World placed two ranks per node: one rank per block, every compute task
// replicated under injected SDC and DUE faults, over a fabric that prices
// node-mate messages at memory-bus cost and node-crossing ones at
// Marenostrum cost. It runs twice on that one placed fabric: with the
// World placement-blind, so each position refresh is the flat ring
// allgather, and with the topology handed to the World, so the
// communicator picks the hierarchical allgather. Both runs must equal the
// serial reference bitwise — replication recovers every fault and the
// hierarchical route moves the same payloads — and the hierarchical run
// must finish sooner in virtual time, since only one rank per node
// crosses the wire.
func TestWorldMatchesReference(t *testing.T) {
	const (
		perNode = 2
		ranks   = 2 * perNode
		bodies  = 64 // bodies per block
		steps   = 3
	)
	topo, err := simnet.BlockTopology(ranks, perNode, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	want := reference(params{N: ranks * bodies, B: bodies, Steps: steps})

	// run checks one run's blocks against the reference and returns its
	// transport, whose clock holds the run's virtual fabric time.
	run := func(placed bool) *dist.Sim {
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

		// Rank rk owns block rk and holds a ghost copy of every other
		// block's positions, refreshed by one allgather per step.
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
			initBlock(pos[rk][rk], rk, bodies)
			vel[rk] = buffer.NewF64(3 * bodies)
			acc[rk] = buffer.NewF64(3 * bodies)
		}
		for step := 0; step < steps; step++ {
			bufs := make([][]buffer.Buffer, ranks)
			for rk := range bufs {
				bufs[rk] = make([]buffer.Buffer, ranks)
				for j := range bufs[rk] {
					bufs[rk][j] = pos[rk][j]
				}
			}
			c.Allgather(step, pk, bufs)
			for rk := 0; rk < ranks; rk++ {
				r := c.Rank(rk).Runtime()
				for j := 0; j < ranks; j++ {
					r.Submit("force", func(ctx *rt.Ctx) {
						partialForces(ctx.F64(2), ctx.F64(0), ctx.F64(1), bodies, bodies)
					}, rt.In(pk(rk), pos[rk][rk]), rt.In(pk(j), pos[rk][j]),
						rt.Out(fmt.Sprintf("pacc[%d]", j), pacc[rk][j]))
				}
				args := []rt.Arg{rt.Out("acc", acc[rk])}
				for j := 0; j < ranks; j++ {
					args = append(args, rt.In(fmt.Sprintf("pacc[%d]", j), pacc[rk][j]))
				}
				r.Submit("reduce", func(ctx *rt.Ctx) {
					parts := make([][]float64, ranks)
					for j := range parts {
						parts[j] = ctx.F64(j + 1)
					}
					reduce(ctx.F64(0), parts)
				}, args...)
				r.Submit("integrate", func(ctx *rt.Ctx) {
					integrate(ctx.F64(0), ctx.F64(1), ctx.F64(2), bodies)
				}, rt.Inout(pk(rk), pos[rk][rk]), rt.Inout("vel", vel[rk]), rt.In("acc", acc[rk]))
			}
		}
		if err := w.Shutdown(); err != nil {
			t.Fatalf("placed=%v: %v", placed, err)
		}
		if st := w.Stats(); st.SDCDetected == 0 || st.DUERecovered == 0 {
			t.Fatalf("placed=%v: no fault to recover (%d SDC detected, %d DUE recovered)",
				placed, st.SDCDetected, st.DUERecovered)
		}
		for rk := 0; rk < ranks; rk++ {
			for k, got := range pos[rk][rk] {
				if exp := want[rk*3*bodies+k]; got != exp {
					t.Fatalf("placed=%v: rank %d coord %d = %v, want %v bitwise", placed, rk, k, got, exp)
				}
			}
		}
		if got := c.Hierarchical(); got != placed {
			t.Fatalf("placed=%v: communicator hierarchical = %v", placed, got)
		}
		return sim
	}

	flat, hier := run(false), run(true)
	t.Logf("virtual fabric time: flat ring %.2f µs, hierarchical %.2f µs",
		flat.Now().Seconds()*1e6, hier.Now().Seconds()*1e6)
	if hier.Now() >= flat.Now() {
		t.Fatalf("hierarchical allgather took %v of virtual fabric time, flat ring %v: want less",
			hier.Now(), flat.Now())
	}
}
