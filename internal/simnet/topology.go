// Topology is the hierarchical interconnect model: a placement of ranks
// onto physical nodes plus two link cost models, one for rank pairs that
// share a node (the memory bus) and one for rank pairs that cross the wire
// (the InfiniBand fabric). The paper's Marenostrum III testbed is 64 nodes ×
// 16 cores: 15/16 of a rank's neighbors are reachable through shared memory
// and only node-crossing edges pay interconnect cost, a distinction the old
// single-Config Network could not express — it priced every (src, dst) pair
// identically, so a simulated placement could be arbitrarily bad without the
// virtual clock noticing.
//
// Every layer that prices communication consumes the same Topology: the
// event-driven Network (the cluster DAG simulator's fabric), the Meter (the
// dist Sim transport's virtual clock), and the dist collectives, which
// auto-select hierarchical algorithms when the topology is non-flat. The
// degenerate one-rank-per-node topology (BlockTopology with one rank per
// node) reproduces the old flat behavior exactly.
package simnet

import (
	"errors"
	"fmt"
	"math"

	"appfit/internal/simtime"
)

// Named errors of the cost-model layer, returned by Config.Validate and the
// Topology constructors.
var (
	// ErrConfig reports a Config whose costs would be ±Inf or NaN: a
	// non-positive (or NaN) bandwidth, or a negative (or NaN) latency.
	ErrConfig = errors.New("simnet: invalid interconnect config")
	// ErrTopology reports a malformed placement: no ranks, or a node id
	// outside [0, ranks).
	ErrTopology = errors.New("simnet: invalid topology")
)

// Validate checks that the cost model produces finite, non-negative
// transfer times: bandwidth must be positive and latency non-negative
// (both finite). A zero-value Config is invalid — callers that want the
// paper's fabric use Marenostrum().
func (c Config) Validate() error {
	if !(c.BandwidthBytesPerSec > 0) || math.IsInf(c.BandwidthBytesPerSec, 0) {
		return fmt.Errorf("simnet: bandwidth %v bytes/s: %w", c.BandwidthBytesPerSec, ErrConfig)
	}
	if !(c.LatencySec >= 0) || math.IsInf(c.LatencySec, 0) {
		return fmt.Errorf("simnet: latency %v s: %w", c.LatencySec, ErrConfig)
	}
	return nil
}

// MemoryBus returns a shared-memory-class intra-node model: 100 ns latency,
// 32 GB/s — the same stream bandwidth the cluster simulator charges for
// checkpoint traffic, so a rank-to-rank copy inside a node and a checkpoint
// of the same bytes cost alike.
func MemoryBus() Config {
	return Config{LatencySec: 1e-7, BandwidthBytesPerSec: 32e9}
}

// Topology places ranks on physical nodes and prices links by placement.
// Construct with NewTopology, BlockTopology or
// MarenostrumTopology; the constructors validate, so a held *Topology is
// always well-formed.
type Topology struct {
	nodeOf []int
	flat   bool
	intra  Config
	inter  Config
}

// NewTopology builds a topology from an explicit placement: nodeOf[r] is
// rank r's node id (ids must lie in [0, len(nodeOf)); they need not be
// dense). intra prices links between ranks sharing a node, inter prices
// node-crossing links. The slice is copied. Returns a wrapped ErrTopology
// or ErrConfig on malformed input.
func NewTopology(nodeOf []int, intra, inter Config) (*Topology, error) {
	n := len(nodeOf)
	if n == 0 {
		return nil, fmt.Errorf("simnet: topology with no ranks: %w", ErrTopology)
	}
	if err := intra.Validate(); err != nil {
		return nil, fmt.Errorf("intra: %w", err)
	}
	if err := inter.Validate(); err != nil {
		return nil, fmt.Errorf("inter: %w", err)
	}
	t := &Topology{nodeOf: make([]int, n), intra: intra, inter: inter}
	seen := make([]bool, n)
	t.flat = true
	for r, nd := range nodeOf {
		if nd < 0 || nd >= n {
			return nil, fmt.Errorf("simnet: rank %d on node %d of %d ranks: %w", r, nd, n, ErrTopology)
		}
		t.nodeOf[r] = nd
		if seen[nd] {
			t.flat = false
		}
		seen[nd] = true
	}
	return t, nil
}

// BlockTopology places ranks onto nodes in contiguous blocks of perNode:
// rank r sits on node r/perNode. A trailing partial block is allowed.
func BlockTopology(ranks, perNode int, intra, inter Config) (*Topology, error) {
	if perNode < 1 {
		return nil, fmt.Errorf("simnet: %d ranks per node: %w", perNode, ErrTopology)
	}
	nodeOf := make([]int, ranks)
	for r := range nodeOf {
		nodeOf[r] = r / perNode
	}
	return NewTopology(nodeOf, intra, inter)
}

// MarenostrumTopology is the paper's machine shape: blocks of perNode ranks
// per node, memory-bus links inside a node, Marenostrum InfiniBand across.
func MarenostrumTopology(ranks, perNode int) (*Topology, error) {
	return BlockTopology(ranks, perNode, MemoryBus(), Marenostrum())
}

// Ranks returns the number of placed ranks.
func (t *Topology) Ranks() int { return len(t.nodeOf) }

// NodeOf returns rank r's node id.
func (t *Topology) NodeOf(r int) int { return t.nodeOf[r] }

// Intra returns the intra-node link model.
func (t *Topology) Intra() Config { return t.intra }

// Inter returns the inter-node link model.
func (t *Topology) Inter() Config { return t.inter }

// Route classifies a src→dst transfer under the physical link model shared
// by Network and Meter: the cost model to charge, the physical link that
// serializes it, and whether it crosses the wire. Intra-node transfers
// occupy the directed (src, dst) rank pair — cores move memory in parallel
// — while inter-node transfers occupy the directed (srcNode, dstNode)
// pair: every rank pair funneling through one cable queues on it.
func (t *Topology) Route(src, dst int) (cfg Config, link [2]int, wire bool) {
	if t.nodeOf[src] == t.nodeOf[dst] {
		return t.intra, [2]int{src, dst}, false
	}
	return t.inter, [2]int{t.nodeOf[src], t.nodeOf[dst]}, true
}

// links is the busy-tracking state shared by the two pricing engines
// (Network and Meter): the placement, the one model of a flat Network
// (New; a Meter always has a placement, a flat one one rank per node),
// one serialization table per link kind, and wire accounting — so routing
// and accounting cannot diverge between the event-driven simulator and the
// transport meter. Not safe for concurrent use; owners serialize.
//
// Self-send contract (shared by both engines, locked by
// TestSelfSendContract): a src == dst payload counts in Messages and
// BytesSent — it was produced and delivered like any other — but never in
// WireBytes, never occupies a link, and costs zero fabric time. The
// engines express "free" in their own clocks: Network.Send delivers a
// self-send at the engine's current time (after zero transfer, still
// asynchronously), and Meter.Charge returns 0 for it — delivery is
// immediate in virtual time, independent of whatever makespan other
// traffic has accumulated.
type links struct {
	topo *Topology               // nil only on a flat Network: every rank its own node
	flat Config                  // used only when topo == nil
	busy map[[2]int]simtime.Time // rank-pair links (flat + intra-node)
	wire map[[2]int]simtime.Time // node-pair links (inter-node)

	messages  uint64
	bytesSent int64
	wireBytes int64
}

// newLinks builds idle link state; exactly one of topo / flat is in play.
func newLinks(topo *Topology, flat Config) links {
	l := links{topo: topo, flat: flat, busy: make(map[[2]int]simtime.Time)}
	if topo != nil {
		l.wire = make(map[[2]int]simtime.Time)
	}
	return l
}

// route accounts one src→dst payload (the caller has excluded self-sends)
// and returns the cost model, the serialization table, and the physical
// link key that carry it.
func (l *links) route(src, dst int, bytes int64) (Config, map[[2]int]simtime.Time, [2]int) {
	cfg, table, link := l.flat, l.busy, [2]int{src, dst}
	if l.topo == nil {
		l.wireBytes += bytes // flat: every rank is its own node
	} else {
		var onWire bool
		cfg, link, onWire = l.topo.Route(src, dst)
		if onWire {
			table = l.wire
			l.wireBytes += bytes
		}
	}
	return cfg, table, link
}

// Topology returns the placement, nil for a flat Network.
func (l *links) Topology() *Topology { return l.topo }

// Messages returns the number of payloads accounted so far.
func (l *links) Messages() uint64 { return l.messages }

// BytesSent returns the cumulative payload bytes.
func (l *links) BytesSent() int64 { return l.bytesSent }

// WireBytes returns the payload bytes that crossed node boundaries (every
// non-self payload, when flat: each rank is its own node).
func (l *links) WireBytes() int64 { return l.wireBytes }

// Flat reports whether no two ranks share a node — the degenerate topology
// under which placement-aware layers reproduce the old flat behavior
// (hierarchical collectives stay disabled, every link prices as Inter).
// Flatness is precomputed at construction, so callers on hot paths (the
// dist collectives' algorithm selection) may consult it per operation.
func (t *Topology) Flat() bool { return t.flat }
