package simnet

import "appfit/internal/simtime"

// Meter is the transport-side virtual clock: per-physical-link occupancy
// accounting without an event engine, for executions whose ranks run at
// wall-clock speed and only account fabric time (the dist Sim transport).
//
// Each physical link is an independent pipeline that serializes its own
// transfers: a charge starts when the link last fell idle and occupies it
// for latency + bytes/bandwidth. Now() is the makespan — the latest
// busy-until over all links — so traffic on disjoint links overlaps freely
// while traffic funneled through one cable queues, which is exactly the
// signal that separates a good placement from a bad one. Causal gaps (a
// forward that could not start before its receive) are not modeled: Now()
// is the link-occupancy lower bound of the schedule, reported consistently
// for every algorithm so their makespans compare.
//
// Links and pricing follow the exact physical model of the event-driven
// Network — both engines share one links state (see Topology.Route), so
// they cannot diverge. Same-rank sends are free. A flat fabric is the
// one-rank-per-node topology (BlockTopology(ranks, 1, cfg, cfg)): every
// rank-pair link is priced by its one Config, and every non-self payload
// counts as wire traffic, because such a placement has no "inside a node".
//
// Meter is not safe for concurrent use; callers serialize (the Sim
// transport holds its own lock).
type Meter struct {
	links
	makespan simtime.Time
}

// NewMeter returns an idle meter over topo (non-nil; the Topology
// constructors validate).
func NewMeter(topo *Topology) *Meter {
	if topo == nil {
		panic("simnet: NewMeter with nil topology")
	}
	return &Meter{links: newLinks(topo, Config{})}
}

// Charge accounts one src→dst transfer of bytes and returns the virtual
// time its link falls idle again. Same-rank transfers follow the links
// self-send contract: counted in Messages/BytesSent, never WireBytes, no
// link occupancy, and Charge returns 0 — the self-delivery is immediate in
// virtual time, not gated on the makespan other traffic has built up.
func (m *Meter) Charge(src, dst int, bytes int64) simtime.Time {
	m.messages++
	m.bytesSent += bytes
	if src == dst {
		return 0
	}
	cfg, table, link := m.route(src, dst, bytes)
	end := table[link] + cfg.TransferTime(bytes)
	table[link] = end
	if end > m.makespan {
		m.makespan = end
	}
	return end
}

// Now returns the makespan: the latest busy-until over all links.
func (m *Meter) Now() simtime.Time { return m.makespan }
