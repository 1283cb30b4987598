package experiments

import (
	"fmt"

	chol "appfit/internal/bench/cholesky"
	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/simnet"
	"appfit/internal/stats"
)

// KernelsTable is the distributed-kernel experiment, two sections in one
// table that `make check-figures` gates, in virtual µs (the Sim
// transport's link-occupancy makespan) and wire MB (the payload volume the
// meter charged; for placed fabrics, the volume crossing node boundaries):
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
//
// Both sections are deterministic — virtual clocks and seeded faults, no
// wall-clock anywhere.
func KernelsTable(ranks, perNode, vecLen int, seed uint64) (string, error) {
	t := stats.NewTable("experiment", "variant", "ranks", "virtual µs", "wire MB")
	add := func(experiment, variant string, us, wire float64) { t.AddRow(experiment, variant, ranks, us, wire) }

	topo, err := simnet.MarenostrumTopology(ranks, perNode)
	if err != nil {
		return "", err
	}

	// Section 1: tree vs Rabenseifner at a payload the byte-based selector
	// sends to Rabenseifner (vecLen·8 ≥ RabenseifnerCrossoverBytes), priced
	// on the placed fabric where inter-node cables serialize. That is where
	// bandwidth optimality pays: Rabenseifner moves O(V) per member where
	// the tree moves O(V·log p) through its upper rounds, and the shared
	// cables turn that volume difference into makespan. (On a flat per-pair
	// meter no link is shared, so both algorithms' critical links carry ~V
	// and only wire volume separates them.)
	runAllreduce := func(algo func(*dist.Comm, int, string, []buffer.F64, dist.ReduceOp)) (float64, float64, error) {
		return onFabric(dist.NewSimTopology(topo), dist.Config{Ranks: ranks}, func(c *dist.Comm) error {
			bufs := make([]buffer.F64, ranks)
			for i := range bufs {
				bufs[i] = buffer.NewF64(vecLen)
				bufs[i][0] = float64(i + 1)
			}
			algo(c, 0, "r", bufs, dist.OpSum)
			return nil
		})
	}
	treeUS, treeMB, err := runAllreduce((*dist.Comm).AllreduceTree)
	if err != nil {
		return "", fmt.Errorf("experiments: kernels allreduce tree: %w", err)
	}
	rabUS, rabMB, err := runAllreduce((*dist.Comm).AllreduceRabenseifner)
	if err != nil {
		return "", fmt.Errorf("experiments: kernels allreduce rabenseifner: %w", err)
	}
	add("allreduce 256KiB", "tree", treeUS, treeMB)
	add("allreduce 256KiB", "rabenseifner", rabUS, rabMB)
	if rabUS >= treeUS || rabMB >= treeMB {
		return "", fmt.Errorf("experiments: kernels: rabenseifner (%.1f µs, %.2f MB) must strictly beat tree (%.1f µs, %.2f MB) on large vectors: %w",
			rabUS, rabMB, treeUS, treeMB, ErrCriteria)
	}

	// Section 2: distributed cholesky flat vs hierarchical on the placed
	// fabric, with replicated tile kernels under injected faults.
	var cholUS, cholWire [2]float64
	for v, placed := range []bool{false, true} {
		cfg := dist.Config{
			Ranks: ranks,
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
		var d *chol.Dist
		cholUS[v], cholWire[v], err = onFabric(dist.NewSimTopology(topo), cfg, func(c *dist.Comm) (err error) {
			d, err = chol.BuildDist(c, chol.DistConfig{Nb: 16, B: 16})
			return err
		})
		if err == nil {
			err = d.Verify()
		}
		if err != nil {
			return "", fmt.Errorf("experiments: kernels cholesky placed=%v: %w", placed, err)
		}
	}
	add("cholesky 16×16²", "flat", cholUS[0], cholWire[0])
	add("cholesky 16×16²", "hier", cholUS[1], cholWire[1])
	if cholWire[1] >= cholWire[0] {
		return "", fmt.Errorf("experiments: kernels: hierarchical cholesky wire %.2f MB must strictly beat flat %.2f MB: %w",
			cholWire[1], cholWire[0], ErrCriteria)
	}

	return t.String() + "\nvirtual clocks only: every number is deterministic\n", nil
}
