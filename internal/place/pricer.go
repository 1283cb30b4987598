package place

import (
	"appfit/internal/simnet"
	"appfit/internal/simtime"
)

// pricer holds one rank→node assignment together with the per-link
// occupancy a simnet.Meter charged with the whole profile under that
// assignment would hold, and re-prices a move by taking the moved ranks'
// entries off their links and putting them back on the new ones —
// O(degree of the moved ranks) instead of O(profile entries).
//
// Exactness is structural: a meter link's busy-until is a sum of integer
// transfer times (simtime.Time is int64 nanoseconds), and the makespan is
// the largest of those sums. Integer addition is commutative and
// associative, so building the sums entry by entry, or subtracting an
// entry's cost from one link and adding it to another, lands on bitwise
// the sums — and so the makespan — a meter charged with the same messages
// in any order reports. A search undoes a rejected move by applying its
// inverse, which restores every sum exactly.
//
// Links follow simnet.Topology.Route: traffic between node-mates occupies
// its directed rank pair (one intra slot per distinct pair, priced by the
// intra model); traffic between nodes occupies the directed node pair
// (priced by the inter model) and counts as wire bytes. Self traffic is
// counted in Messages/BytesSent and never occupies a link. A pricer is not
// safe for concurrent use.
type pricer struct {
	assign []int // rank → node; owned by the pricer

	entries []pricedEntry // the profile's non-self entries
	// adj[off[r]:off[r+1]] lists the entries whose src or dst is rank r.
	adj, off []int32

	intra []simtime.Time          // busy-until per intra slot
	wire  map[[2]int]simtime.Time // busy-until per directed node pair
	// makespan is the largest link sum unless stale: a decrease of the
	// link holding it marks it stale, and eval rescans.
	makespan simtime.Time
	stale    bool

	wireBytes int64
	messages  uint64
	bytesSent int64
}

type pricedEntry struct {
	src, dst  int32
	slot      int32        // intra slot of the (src, dst) rank pair
	intraCost simtime.Time // count × intra.TransferTime(bytes)
	interCost simtime.Time // count × inter.TransferTime(bytes)
	bytes     int64        // count × payload bytes
}

// newPricer prices profile p at assign (len(assign) == p.Ranks(); node
// ids are any ints), taking ownership of assign.
func newPricer(p *Profile, assign []int, intra, inter simnet.Config) *pricer {
	es := p.Entries()
	pr := &pricer{
		assign:  assign,
		entries: make([]pricedEntry, 0, len(es)),
		off:     make([]int32, len(assign)+1),
		intra:   make([]simtime.Time, 0, len(es)),
		wire:    make(map[[2]int]simtime.Time),
	}
	for _, e := range es {
		pr.messages += e.Count
		pr.bytesSent += int64(e.Count) * e.Bytes
		if e.Src == e.Dst {
			continue
		}
		// Entries sort by (src, dst, size), so a pair's entries are adjacent.
		if n := len(pr.entries); n == 0 || pr.entries[n-1].src != int32(e.Src) || pr.entries[n-1].dst != int32(e.Dst) {
			pr.intra = append(pr.intra, 0)
		}
		pr.entries = append(pr.entries, pricedEntry{
			src:       int32(e.Src),
			dst:       int32(e.Dst),
			slot:      int32(len(pr.intra) - 1),
			intraCost: simtime.Time(e.Count) * intra.TransferTime(e.Bytes),
			interCost: simtime.Time(e.Count) * inter.TransferTime(e.Bytes),
			bytes:     int64(e.Count) * e.Bytes,
		})
		pr.off[e.Src]++
		pr.off[e.Dst]++
	}
	// Counts → end offsets, then fill backwards so each range ends up
	// holding its entries in ascending order and off[r] its start.
	for r := 1; r < len(pr.off); r++ {
		pr.off[r] += pr.off[r-1]
	}
	pr.adj = make([]int32, pr.off[len(pr.off)-1])
	for i := len(pr.entries) - 1; i >= 0; i-- {
		e := &pr.entries[i]
		pr.off[e.src]--
		pr.adj[pr.off[e.src]] = int32(i)
		pr.off[e.dst]--
		pr.adj[pr.off[e.dst]] = int32(i)
	}
	for i := range pr.entries {
		pr.charge(int32(i), 1)
	}
	return pr
}

// eval returns the price of the current assignment.
func (pr *pricer) eval() Eval {
	if pr.stale {
		pr.makespan, pr.stale = 0, false
		for _, t := range pr.intra {
			pr.makespan = max(pr.makespan, t)
		}
		for _, t := range pr.wire {
			pr.makespan = max(pr.makespan, t)
		}
	}
	return Eval{Makespan: pr.makespan, WireBytes: pr.wireBytes, Messages: pr.messages, BytesSent: pr.bytesSent}
}

// move puts rank a on node na and rank b on node nb (a == b with na == nb
// relocates one rank), re-pricing only the entries that touch them.
func (pr *pricer) move(a, na, b, nb int) {
	pr.chargeRanks(a, b, -1)
	pr.assign[a], pr.assign[b] = na, nb
	pr.chargeRanks(a, b, 1)
}

// chargeRanks charges sign × every entry touching rank a or b, once each,
// on the links the current assignment routes them over.
func (pr *pricer) chargeRanks(a, b int, sign simtime.Time) {
	for _, ei := range pr.adj[pr.off[a]:pr.off[a+1]] {
		pr.charge(ei, sign)
	}
	if b == a {
		return
	}
	for _, ei := range pr.adj[pr.off[b]:pr.off[b+1]] {
		if e := &pr.entries[ei]; int(e.src) != a && int(e.dst) != a {
			pr.charge(ei, sign)
		}
	}
}

// charge adds sign × entry ei's cost to the link it occupies under the
// current assignment.
func (pr *pricer) charge(ei int32, sign simtime.Time) {
	e := &pr.entries[ei]
	na, nb := pr.assign[e.src], pr.assign[e.dst]
	if na == nb {
		pr.intra[e.slot] = pr.bump(pr.intra[e.slot], sign*e.intraCost)
		return
	}
	pr.wireBytes += int64(sign) * e.bytes
	link := [2]int{na, nb}
	pr.wire[link] = pr.bump(pr.wire[link], sign*e.interCost)
}

// bump returns busy+d and keeps the makespan bookkeeping: an increase past
// it raises it, a decrease of the link holding it marks it stale.
func (pr *pricer) bump(busy, d simtime.Time) simtime.Time {
	if d < 0 && busy == pr.makespan {
		pr.stale = true
	}
	busy += d
	pr.makespan = max(pr.makespan, busy)
	return busy
}
