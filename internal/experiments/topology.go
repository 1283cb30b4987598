package experiments

import (
	"fmt"

	"appfit/internal/buffer"
	"appfit/internal/dist"
	"appfit/internal/simnet"
	"appfit/internal/stats"
)

// TopologyRow is one flat-vs-hierarchical comparison: the same collective
// on the same placed fabric (ranks ranks, perNode per node, Marenostrum
// inter-node links, memory-bus intra-node links), once with the flat
// algorithm (the World does not know the placement) and once with the
// hierarchical one (it does). Times are the Sim transport's link-occupancy
// makespans in virtual microseconds; WireMB is the payload volume that
// crossed node boundaries.
type TopologyRow struct {
	Collective     string
	Ranks, PerNode int
	FlatUS, HierUS float64
	FlatWireMB     float64
	HierWireMB     float64
	Speedup        float64
}

// TopologyTable runs Allreduce, Allgather and Broadcast flat vs
// hierarchical on a ranks×perNode placed fabric with vecLen-element
// float64 payloads, and renders the virtual-time table EXPERIMENTS.md
// records. Both variants price traffic on the identical placed meter, so
// the entire difference is the algorithm's routing.
func TopologyTable(ranks, perNode, vecLen int) ([]TopologyRow, string, error) {
	topo, err := simnet.MarenostrumTopology(ranks, perNode)
	if err != nil {
		return nil, "", err
	}
	type coll struct {
		name string
		run  func(c *dist.Comm) error
	}
	colls := []coll{
		{"allreduce", func(c *dist.Comm) error {
			bufs := make([]buffer.F64, ranks)
			for i := range bufs {
				bufs[i] = buffer.NewF64(vecLen)
				bufs[i][0] = 1
			}
			c.AllreduceSum(0, "r", bufs)
			return nil
		}},
		{"allgather", func(c *dist.Comm) error { return allgather(c, ranks, vecLen) }},
		{"broadcast", func(c *dist.Comm) error {
			bufs := make([]buffer.Buffer, ranks)
			for i := range bufs {
				bufs[i] = buffer.NewF64(vecLen)
			}
			c.Broadcast(ranks/2, 0, "b", bufs)
			return nil
		}},
	}
	var rows []TopologyRow
	t := stats.NewTable("collective", "ranks", "per node", "flat µs", "hier µs", "speedup", "flat wire MB", "hier wire MB")
	for _, cl := range colls {
		var us, wire [2]float64
		for v, placed := range []bool{false, true} {
			cfg := dist.Config{Ranks: ranks}
			if placed {
				cfg.Topology = topo
			}
			if us[v], wire[v], err = onFabric(dist.NewSimTopology(topo), cfg, cl.run); err != nil {
				return nil, "", fmt.Errorf("experiments: topology %s placed=%v: %w", cl.name, placed, err)
			}
		}
		row := TopologyRow{
			Collective: cl.name, Ranks: ranks, PerNode: perNode,
			FlatUS: us[0], HierUS: us[1],
			FlatWireMB: wire[0], HierWireMB: wire[1],
		}
		if us[1] > 0 {
			row.Speedup = us[0] / us[1]
		}
		rows = append(rows, row)
		t.AddRow(cl.name, ranks, perNode, row.FlatUS, row.HierUS, row.Speedup, row.FlatWireMB, row.HierWireMB)
	}
	return rows, t.String() + "\nsame placed fabric, same payloads: only the algorithms' routing differs\n", nil
}

// onFabric runs program on a fresh World whose transport is sim and returns
// the virtual makespan in µs and the payload volume the meter charged in MB.
func onFabric(sim *dist.Sim, cfg dist.Config, program func(*dist.Comm) error) (us, wireMB float64, err error) {
	cfg.Transport = sim
	w := dist.NewWorld(cfg)
	if err := program(w.Comm()); err != nil {
		return 0, 0, err
	}
	if err := w.Shutdown(); err != nil {
		return 0, 0, err
	}
	return sim.Now().Seconds() * 1e6, float64(sim.WireBytes()) / 1e6, nil
}

// allgather gathers one vecLen-element block of every rank to every rank.
func allgather(c *dist.Comm, ranks, vecLen int) error {
	bufs := make([][]buffer.Buffer, ranks)
	for i := range bufs {
		bufs[i] = make([]buffer.Buffer, ranks)
		for j := range bufs[i] {
			bufs[i][j] = buffer.NewF64(vecLen)
		}
	}
	c.Allgather(0, func(j int) string { return fmt.Sprintf("b%d", j) }, bufs)
	return nil
}
