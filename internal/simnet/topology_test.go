package simnet

import (
	"errors"
	"math"
	"testing"

	"appfit/internal/simtime"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},                           // zero bandwidth
		{LatencySec: 1e-6},           // zero bandwidth, sane latency
		{BandwidthBytesPerSec: -5e9}, // negative bandwidth
		{LatencySec: -1, BandwidthBytesPerSec: 1e9},          // negative latency
		{LatencySec: math.NaN(), BandwidthBytesPerSec: 1e9},  // NaN latency
		{LatencySec: 0, BandwidthBytesPerSec: math.NaN()},    // NaN bandwidth
		{LatencySec: math.Inf(1), BandwidthBytesPerSec: 1e9}, // Inf latency
		{LatencySec: 0, BandwidthBytesPerSec: math.Inf(1)},   // Inf bandwidth
	}
	for i, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrConfig) {
			t.Fatalf("case %d: Validate(%+v) = %v, want ErrConfig", i, c, err)
		}
	}
	for _, c := range []Config{Marenostrum(), MemoryBus(), {LatencySec: 0, BandwidthBytesPerSec: 1}} {
		if err := c.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", c, err)
		}
	}
}

func TestInvalidConfigWouldCorruptTransferTime(t *testing.T) {
	// The bug Validate closes: a zero-bandwidth Config silently yields +Inf
	// seconds, which FromSeconds folds into garbage Time. Validate must
	// reject every Config on which TransferTime is not finite.
	c := Config{LatencySec: 1e-6}
	sec := c.LatencySec + float64(1000)/c.BandwidthBytesPerSec
	if !math.IsInf(sec, 1) {
		t.Fatalf("expected the raw cost to overflow, got %v", sec)
	}
	if err := c.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("Validate must reject it: %v", err)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New with an invalid Config must panic")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, ErrConfig) {
			t.Fatalf("panic value %v, want a wrapped ErrConfig", r)
		}
	}()
	New(simtime.New(), Config{})
}

func TestTopologyConstructors(t *testing.T) {
	topo, err := BlockTopology(8, 4, MemoryBus(), Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	if topo.Ranks() != 8 || topo.NodeOf(7) != 1 {
		t.Fatalf("8 ranks / 4 per node: ranks=%d, last on node %d", topo.Ranks(), topo.NodeOf(7))
	}
	for r := 0; r < 8; r++ {
		if got, want := topo.NodeOf(r), r/4; got != want {
			t.Fatalf("rank %d on node %d, want %d", r, got, want)
		}
	}
	if _, _, wire := topo.Route(0, 3); wire {
		t.Fatal("block placement boundaries wrong: 0 and 3 share node 0")
	}
	if _, _, wire := topo.Route(3, 4); !wire {
		t.Fatal("block placement boundaries wrong: 3 and 4 are on two nodes")
	}
	if cfg, _, _ := topo.Route(0, 1); cfg != MemoryBus() {
		t.Fatal("Route must price by placement")
	}
	if cfg, _, _ := topo.Route(0, 5); cfg != Marenostrum() {
		t.Fatal("Route must price by placement")
	}
	if topo.Flat() {
		t.Fatal("two ranks share node 0: not flat")
	}

	flat, err := BlockTopology(5, 1, Marenostrum(), Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Flat() || flat.NodeOf(4) != 4 {
		t.Fatalf("flat topology: flat=%v, rank 4 on node %d", flat.Flat(), flat.NodeOf(4))
	}
	if cfg, _, wire := flat.Route(0, 4); cfg != Marenostrum() || !wire {
		t.Fatal("flat links must price as inter")
	}

	mn, err := MarenostrumTopology(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if mn.NodeOf(63) != 3 || mn.Intra() != MemoryBus() || mn.Inter() != Marenostrum() {
		t.Fatalf("MarenostrumTopology: last rank on node %d, intra=%+v", mn.NodeOf(63), mn.Intra())
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewTopology(nil, MemoryBus(), Marenostrum()); !errors.Is(err, ErrTopology) {
		t.Fatalf("empty placement: %v", err)
	}
	if _, err := NewTopology([]int{0, 5}, MemoryBus(), Marenostrum()); !errors.Is(err, ErrTopology) {
		t.Fatalf("node id out of range: %v", err)
	}
	if _, err := NewTopology([]int{0, -1}, MemoryBus(), Marenostrum()); !errors.Is(err, ErrTopology) {
		t.Fatalf("negative node id: %v", err)
	}
	if _, err := NewTopology([]int{0, 0}, Config{}, Marenostrum()); !errors.Is(err, ErrConfig) {
		t.Fatalf("invalid intra config: %v", err)
	}
	if _, err := NewTopology([]int{0, 0}, MemoryBus(), Config{LatencySec: -1, BandwidthBytesPerSec: 1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("invalid inter config: %v", err)
	}
	if _, err := BlockTopology(4, 0, MemoryBus(), Marenostrum()); !errors.Is(err, ErrTopology) {
		t.Fatalf("zero per node: %v", err)
	}
}

func TestNewTopologyCopiesPlacement(t *testing.T) {
	nodeOf := []int{0, 0, 1, 1}
	topo, err := NewTopology(nodeOf, MemoryBus(), Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	nodeOf[0] = 1
	if topo.NodeOf(0) != 0 {
		t.Fatal("Topology must copy the placement slice")
	}
}

// placedNetwork returns a Network on eng's clock placed on topo.
func placedNetwork(eng *simtime.Engine, topo *Topology) *Network {
	n := New(eng, Marenostrum())
	n.Reset(topo)
	return n
}

func TestNetworkTopologyPricing(t *testing.T) {
	intra := Config{LatencySec: 0, BandwidthBytesPerSec: 1e9}
	inter := Config{LatencySec: 0, BandwidthBytesPerSec: 1e8} // 10× slower
	topo, err := BlockTopology(4, 2, intra, inter)
	if err != nil {
		t.Fatal(err)
	}
	eng := simtime.New()
	n := placedNetwork(eng, topo)
	var dIntra, dInter simtime.Time
	n.Send(0, 1, 1000, func() { dIntra = eng.Now() }) // same node
	n.Send(0, 2, 1000, func() { dInter = eng.Now() }) // crosses the wire
	eng.Run()
	if dIntra != intra.TransferTime(1000) || dInter != inter.TransferTime(1000) {
		t.Fatalf("intra=%d inter=%d, want %d and %d",
			dIntra, dInter, intra.TransferTime(1000), inter.TransferTime(1000))
	}
	if n.WireBytes() != 1000 {
		t.Fatalf("WireBytes = %d, want 1000 (only the node-crossing payload)", n.WireBytes())
	}
}

func TestNetworkWireSerializesPerNodePair(t *testing.T) {
	// Two different rank pairs crossing the same node pair share the cable:
	// the second transfer must queue behind the first. Two intra-node rank
	// pairs on one node do not queue (cores move memory in parallel).
	intra := Config{LatencySec: 0, BandwidthBytesPerSec: 1e9}
	inter := Config{LatencySec: 0, BandwidthBytesPerSec: 1e9}
	topo, err := BlockTopology(4, 2, intra, inter)
	if err != nil {
		t.Fatal(err)
	}
	eng := simtime.New()
	n := placedNetwork(eng, topo)
	one := inter.TransferTime(1000)
	var d1, d2 simtime.Time
	n.Send(0, 2, 1000, func() { d1 = eng.Now() })
	n.Send(1, 3, 1000, func() { d2 = eng.Now() }) // different ranks, same cable
	eng.Run()
	if d1 != one || d2 != 2*one {
		t.Fatalf("same-cable transfers must serialize: d1=%d d2=%d, want %d and %d", d1, d2, one, 2*one)
	}

	eng2 := simtime.New()
	n2 := placedNetwork(eng2, topo)
	var p1, p2 simtime.Time
	n2.Send(0, 1, 1000, func() { p1 = eng2.Now() })
	n2.Send(1, 0, 1000, func() { p2 = eng2.Now() }) // distinct rank pairs, same node
	eng2.Run()
	if p1 != p2 {
		t.Fatalf("intra-node rank pairs must not serialize: %d vs %d", p1, p2)
	}
}

func TestFlatTopologyNetworkMatchesFlatNetwork(t *testing.T) {
	// The degenerate one-rank-per-node topology must reproduce the flat
	// Network's timing bitwise: same links, same costs.
	cfg := Config{LatencySec: 1e-6, BandwidthBytesPerSec: 1e9}
	topo, err := BlockTopology(3, 1, cfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(n *Network, eng *simtime.Engine) []simtime.Time {
		var ds []simtime.Time
		rec := func() { ds = append(ds, eng.Now()) }
		n.Send(0, 1, 500, rec)
		n.Send(0, 1, 500, rec) // serializes on (0,1)
		n.Send(1, 2, 2000, rec)
		n.Send(2, 2, 9999, rec) // self: free
		return append(ds, eng.Run())
	}
	engA, engB := simtime.New(), simtime.New()
	a := run(New(engA, cfg), engA)
	b := run(placedNetwork(engB, topo), engB)
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d: flat %d, one-rank-per-node %d", i, a[i], b[i])
		}
	}
}

func TestMeterChargesAndOverlaps(t *testing.T) {
	intra := Config{LatencySec: 0, BandwidthBytesPerSec: 1e9}
	inter := Config{LatencySec: 0, BandwidthBytesPerSec: 1e8}
	topo, err := BlockTopology(4, 2, intra, inter)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter(topo)
	// Two transfers on one cable serialize; an intra transfer overlaps.
	one := inter.TransferTime(1000)
	if got := m.Charge(0, 2, 1000); got != one {
		t.Fatalf("first wire charge ends at %d, want %d", got, one)
	}
	if got := m.Charge(1, 3, 1000); got != 2*one {
		t.Fatalf("second wire charge must queue: %d, want %d", got, 2*one)
	}
	if got := m.Charge(0, 1, 1000); got != intra.TransferTime(1000) {
		t.Fatalf("intra charge must not queue behind the wire: %d", got)
	}
	if m.Now() != 2*one {
		t.Fatalf("makespan = %d, want %d", m.Now(), 2*one)
	}
	if m.Charge(3, 3, 1<<20); m.Now() != 2*one {
		t.Fatal("self charges must be free")
	}
	if m.Messages() != 4 || m.BytesSent() != 3000+1<<20 || m.WireBytes() != 2000 {
		t.Fatalf("accounting: msgs=%d bytes=%d wire=%d", m.Messages(), m.BytesSent(), m.WireBytes())
	}
}

func TestFlatMeter(t *testing.T) {
	// A flat meter is one over the one-rank-per-node topology.
	cfg := Config{LatencySec: 0, BandwidthBytesPerSec: 1e9}
	topo, err := BlockTopology(3, 1, cfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter(topo)
	one := cfg.TransferTime(1000)
	if got := m.Charge(0, 1, 1000); got != one {
		t.Fatalf("first charge ends at %d, want %d", got, one)
	}
	if got := m.Charge(0, 1, 1000); got != 2*one {
		t.Fatalf("same-link charge must queue: %d, want %d", got, 2*one)
	}
	if got := m.Charge(0, 2, 1000); got != one {
		t.Fatalf("distinct links must overlap: %d, want %d", got, one)
	}
	if m.WireBytes() != 3000 {
		t.Fatalf("flat meter wire bytes = %d, want all 3000", m.WireBytes())
	}
}
