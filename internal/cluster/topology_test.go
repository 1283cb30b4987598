package cluster

import (
	"errors"
	"reflect"
	"testing"

	"appfit/internal/fault"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
)

// pairJob is a producer on node 0 feeding a consumer on node 1 with a
// payload — the minimal cross-node edge.
func pairJob(bytes int64) Job {
	return Job{Tasks: []Task{
		{Node: 0, Cost: 1000},
		{Node: 1, Cost: 1000, Deps: []int{0}, DepBytes: []int64{bytes}},
	}}
}

func TestTopologyPricesCoLocation(t *testing.T) {
	intra := simnet.Config{LatencySec: 0, BandwidthBytesPerSec: 1e9}
	inter := simnet.Config{LatencySec: 0, BandwidthBytesPerSec: 1e8} // 10× slower
	// Placement A: nodes 0 and 1 share a machine. Placement B: they don't.
	shared, err := simnet.NewTopology([]int{0, 0}, intra, inter)
	if err != nil {
		t.Fatal(err)
	}
	split, err := simnet.NewTopology([]int{0, 1}, intra, inter)
	if err != nil {
		t.Fatal(err)
	}
	job := pairJob(1000)
	a, err := Run(job, Config{Nodes: 2, CoresPerNode: 1, Topo: shared})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(job, Config{Nodes: 2, CoresPerNode: 1, Topo: split})
	if err != nil {
		t.Fatal(err)
	}
	if want := simtime.Time(2000) + intra.TransferTime(1000); a.Makespan != want {
		t.Fatalf("co-located makespan %d, want %d", a.Makespan, want)
	}
	if want := simtime.Time(2000) + inter.TransferTime(1000); b.Makespan != want {
		t.Fatalf("split makespan %d, want %d", b.Makespan, want)
	}
	if a.WireBytes != 0 || b.WireBytes != 1000 {
		t.Fatalf("wire bytes: co-located %d, split %d", a.WireBytes, b.WireBytes)
	}
}

func TestTopologyNodesDefault(t *testing.T) {
	// With a Topo and no Nodes, the machine is sized by the placement.
	topo, err := simnet.BlockTopology(4, 2, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Tasks: []Task{{Node: 3, Cost: 100}}}
	if _, err := Run(job, Config{Topo: topo}); err != nil {
		t.Fatalf("Nodes should default to Topo.Ranks(): %v", err)
	}
}

func TestTopologyValidationAtRun(t *testing.T) {
	topo, err := simnet.BlockTopology(2, 1, simnet.Marenostrum(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(fanJob(1, 100), Config{Nodes: 4, Topo: topo}); !errors.Is(err, simnet.ErrTopology) {
		t.Fatalf("undersized topology: %v", err)
	}
	if _, err := Run(fanJob(1, 100), Config{Nodes: 1, Net: simnet.Config{LatencySec: -1, BandwidthBytesPerSec: 1}}); !errors.Is(err, simnet.ErrConfig) {
		t.Fatalf("invalid net config: %v", err)
	}
}

func TestFlatTopologyReproducesFlatRunBitwise(t *testing.T) {
	// The degenerate one-node-per-rank topology must reproduce the flat
	// configuration's entire Result, faults and recovery included.
	net := simnet.Config{LatencySec: 1e-6, BandwidthBytesPerSec: 1e9}
	topo, err := simnet.BlockTopology(4, 1, net, net)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Tasks: []Task{
		{Node: 0, Cost: 1000, ArgBytes: 1 << 12},
		{Node: 1, Cost: 2000, ArgBytes: 1 << 12, Deps: []int{0}, DepBytes: []int64{4096}},
		{Node: 2, Cost: 1500, ArgBytes: 1 << 12, Deps: []int{0}, DepBytes: []int64{2048}},
		{Node: 3, Cost: 500, ArgBytes: 1 << 12, Deps: []int{1, 2}, DepBytes: []int64{1024, 1024}},
	}}
	mk := func(topo *simnet.Topology) Config {
		return Config{
			Nodes: 4, CoresPerNode: 2, Net: net, Topo: topo,
			Replicated: All(len(job.Tasks)),
			Injector:   fault.NewFixedRate(11, 0.1, 0.1),
		}
	}
	flat, err := Run(job, mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	placed, err := Run(job, mk(topo))
	if err != nil {
		t.Fatal(err)
	}
	// WireBytes agrees too: a flat run counts everything as wire.
	if !reflect.DeepEqual(flat, placed) {
		t.Fatalf("flat run %+v != one-node-per-rank run %+v", flat, placed)
	}
}

func TestPlacementSeparatesGoodFromBad(t *testing.T) {
	// The motivating scenario: the same DAG of chatty neighbor pairs, once
	// with pairs co-located, once with every pair split across machines.
	// The old flat model priced both identically; the topology-aware
	// simulator must make the bad placement measurably slower.
	const pairs = 8
	var job Job
	for p := 0; p < pairs; p++ {
		a, b := 2*p, 2*p+1
		job.Tasks = append(job.Tasks,
			Task{Node: a, Cost: 1000},
			Task{Node: b, Cost: 1000, Deps: []int{2 * p}, DepBytes: []int64{1 << 16}})
	}
	nodes := 2 * pairs
	good := make([]int, nodes) // pair p on machine p
	bad := make([]int, nodes)  // partners always on different machines
	for r := 0; r < nodes; r++ {
		good[r] = r / 2
		bad[r] = r % pairs
	}
	intra, inter := simnet.MemoryBus(), simnet.Marenostrum()
	run := func(nodeOf []int) Result {
		topo, err := simnet.NewTopology(nodeOf, intra, inter)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(job, Config{Nodes: nodes, CoresPerNode: 1, Topo: topo})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	g, b := run(good), run(bad)
	if g.Makespan >= b.Makespan {
		t.Fatalf("good placement %d must beat bad placement %d", g.Makespan, b.Makespan)
	}
	if g.WireBytes != 0 || b.WireBytes != pairs*(1<<16) {
		t.Fatalf("wire bytes: good %d, bad %d", g.WireBytes, b.WireBytes)
	}
}
