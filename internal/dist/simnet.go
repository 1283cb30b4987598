package dist

import (
	"sync"

	"appfit/internal/buffer"
	"appfit/internal/place"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
)

// Sim is a Direct matcher that additionally charges every message latency
// and bandwidth through internal/simnet's interconnect model. Delivery to
// the receiver is immediate (the ranks run at wall-clock speed); only the
// clock is virtual: after a run, Now() is the fabric makespan the same
// traffic would have needed on the modeled interconnect, and
// Messages/BytesSent are the meter's own accounting.
//
// With a topology (NewSimTopology) the charge is placement-aware: a Match
// whose world Src and Dst share a node is priced by the topology's
// intra-node model on the directed rank-pair link, while a node-crossing
// Match is priced by the inter-node model and serialized on the directed
// (srcNode, dstNode) pair — every rank pair funneling through one cable
// queues on it, so the virtual clock finally distinguishes a good placement
// from a terrible one. NewSim keeps the old flat pricing: every rank its
// own node, one Config for every link.
//
// Communicators are invisible here by design: Match.Src/Dst are always
// world rank ids whatever Comm the traffic belongs to, so the link charged
// is the physical one, and the context id only affects which mailbox the
// payload rendezvouses in.
//
// Links are charged in the order the send tasks happen to execute, so
// Now() of a concurrent run is schedule-dependent within the bounds of
// per-link serialization; totals (Messages, BytesSent, WireBytes) are
// exact. Now() is a link-occupancy makespan: each physical link serializes
// its own transfers while distinct links overlap freely (see
// simnet.Meter).
type Sim struct {
	direct *Direct

	mu sync.Mutex
	// meter prices every message on the virtual fabric. // guarded by mu
	meter *simnet.Meter
	// prof is the attached placement profile, nil when not recording.
	// // guarded by mu
	prof *place.Profile
}

// NewSim returns a simnet-backed transport with the given flat interconnect
// cost model (simnet.Marenostrum() for the paper's fabric class): every
// rank is its own node, any rank id prices. An invalid cfg panics with a
// wrapped simnet.ErrConfig — validate with cfg.Validate() at the boundary.
func NewSim(cfg simnet.Config) *Sim {
	return &Sim{direct: NewDirect(), meter: simnet.NewFlatMeter(cfg)}
}

// NewSimTopology returns a placement-aware simnet transport: messages are
// priced and serialized by topo's intra/inter models and physical links.
// topo must be non-nil (the simnet.Topology constructors validate); a World
// using this transport must not have more ranks than topo.Ranks().
func NewSimTopology(topo *simnet.Topology) *Sim {
	if topo == nil {
		panic("dist: NewSimTopology with nil topology")
	}
	return &Sim{direct: NewDirect(), meter: simnet.NewMeter(topo)}
}

// Topology returns the placement the transport prices by, nil for the flat
// NewSim transport.
func (s *Sim) Topology() *simnet.Topology {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meter.Topology()
}

// Record attaches a placement profile: every subsequent message is also
// recorded as a (world Src, world Dst, bytes) sample into p, the traffic
// matrix internal/place optimizes rank→node assignments against. The
// profile must cover at least the World's ranks (place.Profile.Add panics
// on out-of-range ids, like the meter would index out of range). A nil p
// detaches. Recording shares the transport's lock, so it is safe to attach
// mid-run; the captured profile is whatever traffic flowed while attached.
func (s *Sim) Record(p *place.Profile) {
	s.mu.Lock()
	s.prof = p
	s.mu.Unlock()
}

// Send implements Transport: the payload is charged its transfer time on
// the physical (Src, Dst) link in virtual time (and recorded into the
// attached profile, if any), then delivered to the matcher.
func (s *Sim) Send(m Match, payload buffer.Buffer) {
	s.mu.Lock()
	s.meter.Charge(m.Src, m.Dst, payload.SizeBytes())
	if s.prof != nil {
		s.prof.Add(m.Src, m.Dst, payload.SizeBytes())
	}
	s.mu.Unlock()
	s.direct.Send(m, payload)
}

// Post implements Transport: receives are free; the message was charged at
// its Send.
func (s *Sim) Post(m Match, deliver func(buffer.Buffer, error)) { s.direct.Post(m, deliver) }

// Close implements Transport.
func (s *Sim) Close() { s.direct.Close() }

// Now returns the virtual fabric makespan of the traffic so far: the
// latest busy-until over all physical links.
func (s *Sim) Now() simtime.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meter.Now()
}

// BytesSent returns the cumulative payload bytes charged to the fabric.
func (s *Sim) BytesSent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meter.BytesSent()
}

// WireBytes returns the payload bytes that crossed node boundaries (always
// everything for a flat NewSim transport).
func (s *Sim) WireBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meter.WireBytes()
}
