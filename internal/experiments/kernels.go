package experiments

import (
	"fmt"

	chol "appfit/internal/bench/cholesky"
	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/place"
	"appfit/internal/rt"
	"appfit/internal/simnet"
	"appfit/internal/stats"
	"appfit/internal/xrand"
)

// KernelRow is one cell of the kernels experiment: a collective algorithm or
// a distributed-cholesky variant priced on the virtual fabric. US is the Sim
// transport's link-occupancy makespan in virtual microseconds; WireMB is the
// payload volume the meter charged (for placed fabrics, the volume crossing
// node boundaries).
type KernelRow struct {
	Experiment string
	Variant    string
	Ranks      int
	US         float64
	WireMB     float64
}

// KernelsTable is the distributed-kernel experiment behind `make
// check-kernels`, three gated sections in one table:
//
//  1. Large-vector allreduce, tree vs Rabenseifner on a flat ranks-rank
//     fabric with vecLen-element payloads. Gate: Rabenseifner strictly
//     cheaper in both virtual time and wire volume — the bandwidth-optimal
//     algorithm must actually win at the size the selector routes to it.
//  2. Distributed cholesky (2D block-cyclic, ranks ranks, Nb=16, B=16) flat
//     vs hierarchical on the placed fabric (perNode ranks per node), tile
//     kernels replicated under injected SDC and DUE. Gates: both variants
//     factorize bitwise-equal to the serial reference, and the hierarchical
//     broadcasts strictly cut inter-node wire volume.
//  3. Placement search over the recorded cholesky traffic: the optimizer,
//     started from a seeded random assignment, must strictly beat that
//     random placement's makespan. All three sections are deterministic —
//     virtual clocks and seeded searches, no wall-clock anywhere.
func KernelsTable(ranks, perNode, vecLen int, seed uint64) ([]KernelRow, string, error) {
	var rows []KernelRow
	t := stats.NewTable("experiment", "variant", "ranks", "virtual µs", "wire MB")
	add := func(experiment, variant string, us, wire float64) {
		rows = append(rows, KernelRow{Experiment: experiment, Variant: variant, Ranks: ranks, US: us, WireMB: wire})
		t.AddRow(experiment, variant, ranks, us, wire)
	}

	topo, err := simnet.MarenostrumTopology(ranks, perNode)
	if err != nil {
		return nil, "", err
	}

	// Section 1: tree vs Rabenseifner at a payload the byte-based selector
	// sends to Rabenseifner (vecLen·8 ≥ RabenseifnerCrossoverBytes), priced
	// on the placed fabric where inter-node cables serialize. That is where
	// bandwidth optimality pays: Rabenseifner moves O(V) per member where
	// the tree moves O(V·log p) through its upper rounds, and the shared
	// cables turn that volume difference into makespan. (On a flat per-pair
	// meter no link is shared, so both algorithms' critical links carry ~V
	// and only wire volume separates them.)
	runAllreduce := func(algo func(c *dist.Comm, bufs []buffer.F64)) (float64, float64, error) {
		sim := dist.NewSimTopology(topo)
		w := dist.NewWorld(dist.Config{Ranks: ranks, Transport: sim})
		bufs := make([]buffer.F64, ranks)
		for i := range bufs {
			bufs[i] = buffer.NewF64(vecLen)
			bufs[i][0] = float64(i + 1)
		}
		algo(w.Comm(), bufs)
		if err := w.Shutdown(); err != nil {
			return 0, 0, err
		}
		return sim.Now().Seconds() * 1e6, float64(sim.WireBytes()) / 1e6, nil
	}
	treeUS, treeMB, err := runAllreduce(func(c *dist.Comm, bufs []buffer.F64) {
		c.AllreduceTree(0, "r", bufs, dist.OpSum)
	})
	if err != nil {
		return nil, "", fmt.Errorf("experiments: kernels allreduce tree: %w", err)
	}
	rabUS, rabMB, err := runAllreduce(func(c *dist.Comm, bufs []buffer.F64) {
		c.AllreduceRabenseifner(0, "r", bufs, dist.OpSum)
	})
	if err != nil {
		return nil, "", fmt.Errorf("experiments: kernels allreduce rabenseifner: %w", err)
	}
	add("allreduce 256KiB", "tree", treeUS, treeMB)
	add("allreduce 256KiB", "rabenseifner", rabUS, rabMB)
	if rabUS >= treeUS || rabMB >= treeMB {
		return nil, "", fmt.Errorf("experiments: kernels: rabenseifner (%.1f µs, %.2f MB) must strictly beat tree (%.1f µs, %.2f MB) on large vectors: %w",
			rabUS, rabMB, treeUS, treeMB, ErrCriteria)
	}

	// Section 2: distributed cholesky flat vs hierarchical on the placed
	// fabric, with replicated tile kernels under injected faults. The flat
	// run also records the traffic profile section 3 optimizes.
	prof := place.NewProfile(ranks)
	var cholUS, cholWire [2]float64
	for v, placed := range []bool{false, true} {
		sim := dist.NewSimTopology(topo)
		if !placed {
			sim.Record(prof)
		}
		cfg := dist.Config{
			Ranks:     ranks,
			Transport: sim,
			RT: func(rank int) rt.Config {
				return rt.Config{
					Workers:  2,
					Selector: core.ReplicateAll{},
					Injector: fault.NewFixedRate(uint64(rank)*13+seed, 0.02, 0.02),
				}
			},
		}
		if placed {
			cfg.Topology = topo
		}
		w := dist.NewWorld(cfg)
		d, err := chol.BuildDist(w.Comm(), chol.DistConfig{Nb: 16, B: 16})
		if err != nil {
			return nil, "", fmt.Errorf("experiments: kernels cholesky placed=%v: %w", placed, err)
		}
		if err := w.Shutdown(); err != nil {
			return nil, "", fmt.Errorf("experiments: kernels cholesky placed=%v: %w", placed, err)
		}
		if err := d.Verify(); err != nil {
			return nil, "", fmt.Errorf("experiments: kernels cholesky placed=%v: %w", placed, err)
		}
		cholUS[v] = sim.Now().Seconds() * 1e6
		cholWire[v] = float64(sim.WireBytes()) / 1e6
	}
	add("cholesky 16×16²", "flat", cholUS[0], cholWire[0])
	add("cholesky 16×16²", "hier", cholUS[1], cholWire[1])
	if cholWire[1] >= cholWire[0] {
		return nil, "", fmt.Errorf("experiments: kernels: hierarchical cholesky wire %.2f MB must strictly beat flat %.2f MB: %w",
			cholWire[1], cholWire[0], ErrCriteria)
	}

	// Section 3: placement search over the recorded cholesky traffic. The
	// random start permutes the block slots so occupancy stays perNode and
	// the comparison is placement-only.
	randomOf := make([]int, ranks)
	for r := range randomOf {
		randomOf[r] = r / perNode
	}
	xrand.New(seed).Shuffle(ranks, func(i, j int) {
		randomOf[i], randomOf[j] = randomOf[j], randomOf[i]
	})
	randomTopo, err := simnet.NewTopology(randomOf, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		return nil, "", err
	}
	random, err := place.Evaluate(prof, randomTopo)
	if err != nil {
		return nil, "", err
	}
	res, err := place.Optimize(prof, randomTopo, place.Options{PerNode: perNode, Seed: seed})
	if err != nil {
		return nil, "", err
	}
	add("cholesky placement", "random", random.Makespan.Seconds()*1e6, float64(random.WireBytes)/1e6)
	add("cholesky placement", "optimized", res.Eval.Makespan.Seconds()*1e6, float64(res.Eval.WireBytes)/1e6)
	if res.Eval.Makespan >= random.Makespan {
		return nil, "", fmt.Errorf("experiments: kernels: optimized placement %.1f µs must strictly beat the random start %.1f µs: %w",
			res.Eval.Makespan.Seconds()*1e6, random.Makespan.Seconds()*1e6, ErrCriteria)
	}

	return rows, t.String() + "\nvirtual clocks and seeded searches only: every number is deterministic\n", nil
}
