package simnet_test

import (
	"fmt"

	"appfit/internal/buffer"
	"appfit/internal/dist"
	"appfit/internal/simnet"
)

// ExampleBlockTopology places a four-rank World two ranks per node and
// prices the same reduction's traffic on the placed fabric: the
// communicator auto-selects the hierarchical allreduce (node-local fold →
// leader exchange → node-local fan-out), so only one full vector crosses
// the node boundary in each direction while the node-mates trade over the
// memory bus.
func ExampleBlockTopology() {
	topo, err := simnet.BlockTopology(4, 2, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sim := dist.NewSimTopology(topo)
	w := dist.NewWorld(dist.Config{Ranks: 4, Topology: topo, Transport: sim})
	vals := []buffer.F64{{1}, {2}, {3}, {4}}
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
