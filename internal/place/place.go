// Package place is the placement-optimization subsystem: it turns the
// placement-aware virtual clock into a search objective. Every other layer
// *takes* the rank→node placement as given — the simnet Meter and Network
// price it, the dist collectives route around it — but on the paper's
// fixed machine (64 Marenostrum III nodes × 16 cores) placement is the one
// free knob an application controls, and a bad assignment costs real
// makespan.
//
// The pipeline has three stages:
//
//   - Profile: a directed rank-pair traffic matrix (message count per
//     payload size), captured by recording a live dist.Sim transport
//     (Sim.Record) or built directly with Add/AddN.
//   - Evaluate: price a profile under any candidate topology, yielding the
//     link-occupancy makespan and wire bytes the simnet.Meter would report
//     for that traffic on that placement — bitwise, whatever order a live
//     run charges the messages in (see pricer).
//   - Optimize: search assignments — a greedy co-location seed packs the
//     heaviest-communicating pairs onto shared nodes, then budgeted local
//     search (pairwise swap / relocate hill-climbing, deterministic under
//     an xrand seed) refines it. The result never evaluates worse than
//     the input placement.
//
// Limits, by construction: the objective is the meter's link-occupancy
// lower bound — per-link serialization without causal gaps — so a
// placement optimized here is optimized for contention, not for schedule
// overlap; and profiles are static, so traffic that adapts to the
// placement (hierarchical collectives re-routing under the new topology)
// is re-profiled by the caller if they want a second pass. DESIGN.md §9.
package place

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"appfit/internal/simnet"
	"appfit/internal/simtime"
)

// Named errors of the placement layer.
var (
	// ErrProfile reports a malformed profile operation: no ranks, or a
	// rank id outside [0, ranks).
	ErrProfile = errors.New("place: invalid profile")
	// ErrRanks reports a profile evaluated against a topology that places
	// fewer ranks than the profile traffics.
	ErrRanks = errors.New("place: profile exceeds topology ranks")
	// ErrOptions reports optimizer options that describe no feasible
	// machine: non-positive capacity, or fewer node slots than ranks.
	ErrOptions = errors.New("place: invalid optimizer options")
	// ErrCapacity reports capacity-accounting drift inside the optimizer: a
	// seed or move needed a free node slot on a machine that was validated
	// to have one. Surfacing it as a named error keeps the failure at its
	// cause instead of an index panic layers away.
	ErrCapacity = errors.New("place: node capacity exhausted")
)

// Profile is a directed rank-pair traffic matrix: who sent how much to
// whom, message by message. It is the optimizer's input and what a
// recording dist.Sim transport captures.
// Recording (Add/AddN) is not safe for concurrent use — recording
// transports serialize around it — but once recording is done the
// read side (Entries, Evaluate, Optimize) may share one profile across
// goroutines: the flattened-view cache is built under an internal lock,
// so concurrent multi-seed searches need no copies.
type Profile struct {
	ranks int
	// counts holds the message count per (src, dst, payload size). Sizes
	// stay apart because the meter rounds each message's transfer time
	// individually: n messages of b bytes do not price like one message
	// of n·b bytes.
	counts map[flow]uint64

	// mu guards the entries cache build, making concurrent read-side use
	// (parallel searches over one profile) safe. Add/AddN stay outside it:
	// recording concurrent with reading is a caller error either way.
	mu sync.Mutex
	// entries caches the deterministic flattened view pricing iterates;
	// invalidated by Add. // guarded by mu
	entries []Entry
}

// flow is one directed (src, dst, payload size) key of a Profile.
type flow struct {
	src, dst int
	bytes    int64
}

// Entry is one (src, dst, payload size) aggregate of a Profile's
// deterministic flattened view: Count messages of Bytes each.
type Entry struct {
	Src, Dst int
	Bytes    int64
	Count    uint64
}

// NewProfile returns an empty profile over ranks ranks. It panics on
// ranks < 1 — like the simnet constructors, a profile over no ranks is
// always a programmer error.
func NewProfile(ranks int) *Profile {
	if ranks < 1 {
		panic(fmt.Errorf("place: profile over %d ranks: %w", ranks, ErrProfile))
	}
	return &Profile{ranks: ranks, counts: make(map[flow]uint64)}
}

// Ranks returns the number of ranks the profile traffics.
func (p *Profile) Ranks() int { return p.ranks }

// Add records one src→dst message of bytes payload. Out-of-range ranks
// panic with a wrapped ErrProfile (programmer error: the recorder is wired
// to a World whose ranks are bounded by construction). Negative bytes
// clamp to 0, mirroring Config.TransferTime.
func (p *Profile) Add(src, dst int, bytes int64) {
	p.AddN(src, dst, bytes, 1)
}

// AddN records n identical src→dst messages of bytes each — one aggregate
// update, not n Adds, so pre-counted traffic (a job's iteration pattern)
// folds in at constant cost per entry.
func (p *Profile) AddN(src, dst int, bytes int64, n uint64) {
	if src < 0 || src >= p.ranks || dst < 0 || dst >= p.ranks {
		panic(fmt.Errorf("place: message %d→%d in a %d-rank profile: %w", src, dst, p.ranks, ErrProfile))
	}
	if n == 0 {
		return
	}
	if bytes < 0 {
		bytes = 0
	}
	p.counts[flow{src, dst, bytes}] += n
	p.entries = nil //lint:lockedfield recording is single-threaded by contract; mu only protects the read-side cache build
}

// Entries returns the profile flattened to (src, dst, size, count)
// aggregates in deterministic order (ascending src, dst, size). The slice
// is shared and must not be mutated. Safe to call from multiple
// goroutines as long as no Add/AddN runs concurrently.
func (p *Profile) Entries() []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.entries != nil {
		return p.entries
	}
	es := make([]Entry, 0, len(p.counts))
	for f, n := range p.counts {
		es = append(es, Entry{Src: f.src, Dst: f.dst, Bytes: f.bytes, Count: n})
	}
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Bytes < b.Bytes
	})
	p.entries = es
	return es
}

// Eval is the priced outcome of one placement candidate: the meter's
// link-occupancy makespan and its traffic accounting for the profile
// replayed under that topology.
type Eval struct {
	Makespan  simtime.Time
	WireBytes int64
	Messages  uint64
	BytesSent int64
}

// Better reports whether e beats o as a placement objective: strictly
// lower makespan, or equal makespan with strictly fewer wire bytes (the
// meter cannot see contention that never queued, but fewer bytes on the
// cables is still the better placement).
func (e Eval) Better(o Eval) bool {
	if e.Makespan != o.Makespan {
		return e.Makespan < o.Makespan
	}
	return e.WireBytes < o.WireBytes
}

// Evaluate prices the profile under topo: it builds the incremental
// pricer at topo's assignment and reads its price, which is bitwise what a
// simnet.Meter charged with the same messages on the same topology reports
// (TestEvaluateMatchesLiveSim), whatever order a live schedule charged
// them in. A topology placing fewer ranks than the profile returns a
// wrapped ErrRanks.
func Evaluate(p *Profile, topo *simnet.Topology) (Eval, error) {
	if topo.Ranks() < p.ranks {
		return Eval{}, fmt.Errorf("place: %d-rank profile on a %d-rank topology: %w",
			p.ranks, topo.Ranks(), ErrRanks)
	}
	nodeOf := make([]int, p.ranks)
	for r := range nodeOf {
		nodeOf[r] = topo.NodeOf(r)
	}
	return newPricer(p, nodeOf, topo.Intra(), topo.Inter()).eval(), nil
}
