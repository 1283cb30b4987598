// Package simnet models the interconnect of the simulated cluster: a
// latency + bandwidth cost model with per-link serialization, placed on
// physical nodes by a Topology. Collectives are not priced by formula: the
// dist layer's Sim transport charges each of their messages. The paper's distributed
// experiments ran on Marenostrum III (InfiniBand FDR-10); the defaults mirror
// that class of fabric. Absolute constants only scale the time axis — the
// scalability *shapes* of Figure 6 depend on the compute/communication ratio,
// which workloads control via their problem sizes.
package simnet

import "appfit/internal/simtime"

// Config is the interconnect cost model.
type Config struct {
	// LatencySec is the per-message latency in seconds.
	LatencySec float64
	// BandwidthBytesPerSec is the per-link bandwidth.
	BandwidthBytesPerSec float64
}

// Marenostrum returns an InfiniBand-FDR10-class model: 1.5 µs latency,
// 5 GB/s per link.
func Marenostrum() Config {
	return Config{LatencySec: 1.5e-6, BandwidthBytesPerSec: 5e9}
}

// TransferTime returns the time to move bytes across one link.
func (c Config) TransferTime(bytes int64) simtime.Time {
	if bytes < 0 {
		bytes = 0
	}
	sec := c.LatencySec + float64(bytes)/c.BandwidthBytesPerSec
	return simtime.FromSeconds(sec)
}

// Network is the event-driven message layer on top of a simtime.Engine.
// Links serialize their messages: a transfer starts at max(now, link
// busy-until) and occupies the link for its duration. With a topology the
// physical link is placement-derived — intra-node transfers occupy the
// directed (src, dst) rank pair (cores move memory in parallel) while
// inter-node transfers occupy the directed (srcNode, dstNode) pair (every
// rank pair crossing the same cable contends for it) — and each is priced
// by the topology's intra/inter model. Without a topology every rank is its
// own node: one Config, (src, dst) links, the old flat behavior bitwise.
type Network struct {
	eng *simtime.Engine
	// links carries the placement, serialization tables and accounting
	// shared with the Meter (Topology/Messages/BytesSent/WireBytes are
	// promoted from it), so the two pricing engines cannot diverge.
	links
}

// New returns a flat Network using eng's clock: every (src, dst) pair is
// its own link priced by cfg; Reset places it on a Topology. An invalid cfg
// panics with a wrapped ErrConfig — like scheduling an event in the past,
// it is always a programmer error (validate with Config.Validate at the
// boundary).
func New(eng *simtime.Engine, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Network{eng: eng, links: newLinks(nil, cfg)}
}

// Reset idles n for a new run placed on topo (well-formed: the Topology
// constructors validate), or on New's flat fabric when topo is nil: every
// link free, every counter zero, the link tables' memory kept.
func (n *Network) Reset(topo *Topology) {
	if topo != nil && n.wire == nil {
		n.wire = make(map[[2]int]simtime.Time)
	}
	clear(n.busy)
	clear(n.wire)
	n.topo = topo
	n.messages, n.bytesSent, n.wireBytes = 0, 0, 0
}

// Send schedules the delivery of a message of bytes from src to dst and
// calls onDelivery at delivery time. Sends between the same rank deliver
// after zero transfer time (still asynchronously, preserving event order).
func (n *Network) Send(src, dst int, bytes int64, onDelivery func()) {
	n.eng.At(n.Transfer(src, dst, bytes), onDelivery)
}

// Transfer is the pricing half of Send, for a caller that schedules its own
// typed delivery event: it accounts the message, occupies the src→dst link
// from max(now, link busy-until) for the transfer's duration, and returns
// the delivery time (now for a self-send).
func (n *Network) Transfer(src, dst int, bytes int64) simtime.Time {
	n.messages++
	n.bytesSent += bytes
	start := n.eng.Now()
	if src == dst {
		return start
	}
	cfg, table, link := n.route(src, dst, bytes)
	if b, ok := table[link]; ok && b > start {
		start = b
	}
	end := start + cfg.TransferTime(bytes)
	table[link] = end
	return end
}
