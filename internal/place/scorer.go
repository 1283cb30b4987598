package place

import (
	"fmt"

	"appfit/internal/simnet"
	"appfit/internal/simtime"
)

// Scorer is the incremental placement evaluator (DESIGN.md §10): it holds
// one candidate rank→node assignment together with the cached per-link
// occupancy state a full Evaluate replay of the profile would build, and
// re-prices a swap or relocation by subtracting the moved ranks' old link
// contributions and adding the new ones — O(degree of the moved ranks)
// instead of O(profile entries) per candidate, which is what lets the
// optimizer afford annealing schedules and 4096-rank searches.
//
// Exactness is structural, not approximate: the meter's per-link busy-until
// is a *sum* of integer transfer times (simtime.Time is int64 nanoseconds),
// and integer addition is commutative and associative, so removing a
// contribution and adding it elsewhere lands on bitwise the same per-link
// sums a fresh replay of the moved assignment would compute. The makespan
// is the maximum of those sums, so Eval after any move sequence is bitwise
// equal to Evaluate of the same assignment (TestScorerMatchesEvaluate,
// testing/quick). The scorer seeds that state from a real replay — a fresh
// simnet.Meter charged with the profile, snapshotted via Meter.Snapshot —
// so the initial state is the meter's, not a reimplementation of it.
//
// Internally the meter's link maps are flattened for the move hot path:
// every distinct directed rank pair with traffic gets a fixed intra-link
// slot at construction, wire (node-pair) links get slots allocated and
// freed as the assignment routes traffic onto and off them, and a segment
// tree over the slot occupancies answers the makespan in O(1) per Eval
// with O(log links) per changed link — no map hashing on the candidate
// path except one int64 lookup per wire link.
//
// Usage is transactional: Swap or Relocate applies a move and returns the
// resulting Eval; exactly one move may be in flight, resolved by Commit
// (keep it, O(1)) or Rollback (apply the inverse move, O(degree) like the
// move itself). A Scorer is not safe for concurrent use; run one per
// search goroutine (they can share the Profile, whose read side is
// lock-protected).
type Scorer struct {
	prof         *Profile
	intra, inter simnet.Config
	assign       []int

	// Per-entry precomputation: the exact cost an entry contributes to a
	// link under each model, its wire-byte volume, and its fixed
	// intra-link slot (one per distinct directed rank pair). Self entries
	// (src == dst) are placement-independent and excluded from byRank.
	entries []scorerEntry
	// byRank[r] lists indices into entries whose src or dst is r.
	byRank [][]int32

	// stamp/stampGen deduplicate the touched-entry set of a move (an entry
	// between the two swapped ranks appears in both adjacency lists);
	// scratch is the reused touched buffer.
	stamp    []uint64
	stampGen uint64
	scratch  []int32

	// Link occupancy, dense: val[slot] is the link's busy-until, seg the
	// max segment tree over it (seg[1] is the makespan). Slots
	// [0, nIntra) are the fixed intra links; wire links claim slots from
	// freeWire / nextWire while occupied and release them at zero, keyed
	// in wireSlot by src·ranks+dst node ids.
	val      []simtime.Time
	seg      []simtime.Time
	segBase  int
	nIntra   int
	wireSlot map[int64]int32
	freeWire []int32
	nextWire int32

	wireBytes int64
	messages  uint64
	bytesSent int64

	pending pendingMove
}

type scorerEntry struct {
	src, dst  int32
	intraSlot int32        // fixed slot of the (src, dst) rank-pair link
	intraCost simtime.Time // count × intra.TransferTime(bytes), ChargeMany's exact sum
	interCost simtime.Time
	bytes     int64 // count × payload bytes: the wire-byte volume when inter
}

type moveKind uint8

const (
	moveNone moveKind = iota
	moveSwap
	moveRelocate
)

type pendingMove struct {
	kind moveKind
	a, b int // swap: the two ranks; relocate: the rank and its old node
}

// NewScorer builds an incremental evaluator for profile p starting at the
// given assignment (nodeOf[r] = rank r's node, simnet.NewTopology rules:
// ids in [0, len(assign))), with links priced by intra/inter. The
// assignment is copied. Construction replays the profile once through a
// fresh simnet.Meter — O(entries), the last full replay the search pays —
// and seeds the cached link state from its snapshot. An assignment placing
// fewer ranks than the profile returns a wrapped ErrRanks; malformed
// assignments or configs return the simnet constructor's error.
func NewScorer(p *Profile, assign []int, intra, inter simnet.Config) (*Scorer, error) {
	if len(assign) < p.Ranks() {
		return nil, fmt.Errorf("place: %d-rank profile on a %d-rank assignment: %w",
			p.Ranks(), len(assign), ErrRanks)
	}
	topo, err := simnet.NewTopology(assign, intra, inter)
	if err != nil {
		return nil, err
	}
	m := simnet.NewMeter(topo)
	for _, e := range p.Entries() {
		m.ChargeMany(e.Src, e.Dst, e.Bytes, e.Count)
	}
	snap := m.Snapshot()

	s := &Scorer{
		prof:      p,
		intra:     intra,
		inter:     inter,
		assign:    append([]int(nil), assign...),
		byRank:    make([][]int32, len(assign)),
		wireBytes: snap.WireBytes,
		messages:  snap.Messages,
		bytesSent: snap.BytesSent,
	}

	// Flatten the entries, assigning one intra slot per distinct directed
	// rank pair (entries are sorted by (src, dst, size), so a pair's
	// entries are contiguous).
	ranks := int64(len(assign))
	pairSlot := make(map[int64]int32)
	for _, e := range p.Entries() {
		if e.Src == e.Dst {
			continue // self traffic never touches a link, under any placement
		}
		key := int64(e.Src)*ranks + int64(e.Dst)
		slot, ok := pairSlot[key]
		if !ok {
			slot = int32(len(pairSlot))
			pairSlot[key] = slot
		}
		idx := int32(len(s.entries))
		s.entries = append(s.entries, scorerEntry{
			src:       int32(e.Src),
			dst:       int32(e.Dst),
			intraSlot: slot,
			intraCost: simtime.Time(e.Count) * intra.TransferTime(e.Bytes),
			interCost: simtime.Time(e.Count) * inter.TransferTime(e.Bytes),
			bytes:     int64(e.Count) * e.Bytes,
		})
		s.byRank[e.Src] = append(s.byRank[e.Src], idx)
		s.byRank[e.Dst] = append(s.byRank[e.Dst], idx)
	}
	s.stamp = make([]uint64, len(s.entries))

	// Slot capacity: every intra link, plus at most one wire link per
	// distinct directed rank pair (pairs can share a wire link, never
	// split across two), so 2×pairs bounds the concurrently occupied
	// slots whatever the assignment.
	s.nIntra = len(pairSlot)
	s.nextWire = int32(s.nIntra)
	cap := 2 * s.nIntra
	if cap == 0 {
		cap = 1
	}
	s.segBase = 1
	for s.segBase < cap {
		s.segBase <<= 1
	}
	s.val = make([]simtime.Time, cap)
	s.seg = make([]simtime.Time, 2*s.segBase)
	s.wireSlot = make(map[int64]int32)

	// Seed the dense state from the meter's snapshot: intra links land on
	// their fixed slots, wire links claim slots.
	for k, t := range snap.Busy {
		if t == 0 {
			continue
		}
		slot, ok := pairSlot[int64(k[0])*ranks+int64(k[1])]
		if !ok { // cannot happen: snapshot links come from the same entries
			return nil, fmt.Errorf("place: snapshot link %v has no profiled pair: %w", k, ErrProfile)
		}
		s.setSlot(slot, t)
	}
	for k, t := range snap.Wire {
		if t == 0 {
			continue
		}
		slot := s.nextWire
		s.nextWire++
		s.wireSlot[int64(k[0])*ranks+int64(k[1])] = slot
		s.setSlot(slot, t)
	}
	return s, nil
}

// Ranks returns the number of placed ranks.
func (s *Scorer) Ranks() int { return len(s.assign) }

// NodeOf returns rank r's node under the current (pending-move-applied)
// assignment.
func (s *Scorer) NodeOf(r int) int { return s.assign[r] }

// Eval prices the current assignment: bitwise what Evaluate(profile, topo)
// of the same assignment returns. O(1) — the segment tree's root is the
// makespan.
func (s *Scorer) Eval() Eval {
	return Eval{
		Makespan:  s.seg[1],
		WireBytes: s.wireBytes,
		Messages:  s.messages,
		BytesSent: s.bytesSent,
	}
}

// Swap exchanges the nodes of ranks a and b and returns the resulting
// Eval. The move is pending until Commit or Rollback; starting a move
// with one already pending, or naming an out-of-range rank, panics — both
// are programmer errors, like the simnet constructors'. a == b (or two
// node-mates) is a legal no-op move.
func (s *Scorer) Swap(a, b int) Eval {
	s.begin(moveSwap, a, b)
	s.applySwap(a, b)
	return s.Eval()
}

// Relocate moves rank r onto node nd (in [0, Ranks()), the same bound
// simnet.NewTopology enforces) and returns the resulting Eval. Pending
// until Commit or Rollback. The scorer prices only — it does not know node
// capacities; the caller's search enforces them.
func (s *Scorer) Relocate(r, nd int) Eval {
	if nd < 0 || nd >= len(s.assign) {
		panic(fmt.Errorf("place: relocate rank %d to node %d of %d: %w", r, nd, len(s.assign), ErrOptions))
	}
	s.begin(moveRelocate, r, s.assign[r])
	s.applyRelocate(r, nd)
	return s.Eval()
}

// Commit keeps the pending move, in O(1). Panics without one.
func (s *Scorer) Commit() {
	if s.pending.kind == moveNone {
		panic("place: Scorer.Commit with no pending move")
	}
	s.pending.kind = moveNone
}

// Rollback undoes the pending move by applying its inverse — the same
// O(degree) walk the move itself cost. Panics without a pending move.
func (s *Scorer) Rollback() {
	switch s.pending.kind {
	case moveSwap:
		s.applySwap(s.pending.a, s.pending.b) // a swap is its own inverse
	case moveRelocate:
		s.applyRelocate(s.pending.a, s.pending.b) // back to the old node
	default:
		panic("place: Scorer.Rollback with no pending move")
	}
	s.pending.kind = moveNone
}

func (s *Scorer) begin(kind moveKind, a, b int) {
	if s.pending.kind != moveNone {
		panic("place: Scorer move with another still pending (Commit or Rollback first)")
	}
	if a < 0 || a >= len(s.assign) || b < 0 || b >= len(s.assign) {
		panic(fmt.Errorf("place: move of rank %d/%d in a %d-rank scorer: %w", a, b, len(s.assign), ErrProfile))
	}
	s.pending = pendingMove{kind: kind, a: a, b: b}
}

func (s *Scorer) applySwap(a, b int) {
	if s.assign[a] == s.assign[b] {
		return // node-mates (or a == b): no link changes route
	}
	touched := s.touched(a, b)
	for _, ei := range touched {
		s.unroute(ei)
	}
	s.assign[a], s.assign[b] = s.assign[b], s.assign[a]
	for _, ei := range touched {
		s.reroute(ei)
	}
}

func (s *Scorer) applyRelocate(r, nd int) {
	if s.assign[r] == nd {
		return
	}
	touched := s.touched(r, -1)
	for _, ei := range touched {
		s.unroute(ei)
	}
	s.assign[r] = nd
	for _, ei := range touched {
		s.reroute(ei)
	}
}

// touched collects the deduplicated entry indices adjacent to a (and b,
// when b >= 0) into the reused scratch buffer.
func (s *Scorer) touched(a, b int) []int32 {
	s.stampGen++
	buf := s.scratch[:0]
	for _, ei := range s.byRank[a] {
		if s.stamp[ei] != s.stampGen {
			s.stamp[ei] = s.stampGen
			buf = append(buf, ei)
		}
	}
	if b >= 0 && b != a {
		for _, ei := range s.byRank[b] {
			if s.stamp[ei] != s.stampGen {
				s.stamp[ei] = s.stampGen
				buf = append(buf, ei)
			}
		}
	}
	s.scratch = buf
	return buf
}

// unroute subtracts entry ei's contribution from the link it occupies
// under the current assignment.
func (s *Scorer) unroute(ei int32) {
	e := &s.entries[ei]
	na, nb := s.assign[e.src], s.assign[e.dst]
	if na == nb {
		slot := e.intraSlot
		s.setSlot(slot, s.val[slot]-e.intraCost)
		return
	}
	s.wireBytes -= e.bytes
	if e.interCost == 0 {
		return
	}
	key := int64(na)*int64(len(s.assign)) + int64(nb)
	slot := s.wireSlot[key]
	nw := s.val[slot] - e.interCost
	s.setSlot(slot, nw)
	if nw == 0 { // link idle again: release its slot
		delete(s.wireSlot, key)
		s.freeWire = append(s.freeWire, slot)
	}
}

// reroute adds entry ei's contribution to the link it occupies under the
// current assignment.
func (s *Scorer) reroute(ei int32) {
	e := &s.entries[ei]
	na, nb := s.assign[e.src], s.assign[e.dst]
	if na == nb {
		slot := e.intraSlot
		s.setSlot(slot, s.val[slot]+e.intraCost)
		return
	}
	s.wireBytes += e.bytes
	if e.interCost == 0 {
		return
	}
	key := int64(na)*int64(len(s.assign)) + int64(nb)
	slot, ok := s.wireSlot[key]
	if !ok {
		if n := len(s.freeWire); n > 0 {
			slot = s.freeWire[n-1]
			s.freeWire = s.freeWire[:n-1]
		} else {
			slot = s.nextWire
			s.nextWire++
		}
		s.wireSlot[key] = slot
	}
	s.setSlot(slot, s.val[slot]+e.interCost)
}

// setSlot writes one link occupancy and restores the segment tree's max
// invariant above it, stopping at the first unchanged ancestor.
func (s *Scorer) setSlot(slot int32, v simtime.Time) {
	s.val[slot] = v
	i := s.segBase + int(slot)
	s.seg[i] = v
	for i > 1 {
		i >>= 1
		l, r := s.seg[2*i], s.seg[2*i+1]
		if r > l {
			l = r
		}
		if s.seg[i] == l {
			return
		}
		s.seg[i] = l
	}
}
