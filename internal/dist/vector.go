// Non-uniform ("v") vector collectives and the Rabenseifner allreduce.
//
// Broadcast, Allgather and Allreduce in collectives.go assume every member
// contributes an equal-length block. The task-graph kernels the dist layer exists for
// (2D block-cyclic cholesky and friends) do not: a member owns whatever
// tiles the cyclic layout assigned it, so the natural collective exchanges
// per-member *segments* of one shared vector — MPI's Allgatherv. It takes
// a counts vector; segment boundaries are the classic (counts, displs) pair,
// validated up front into the named ErrVectorArgs.
//
// Rabenseifner's allreduce (Thakur & Rabenseifner's bandwidth-optimal
// algorithm for long vectors) is the payoff of having segment-wise
// machinery: recursive *vector halving* so that after log2(p) exchange
// rounds each member holds a fully reduced 1/p-slice, then recursive
// doubling to allgather the slices back. Every member moves ~2·V elements
// total, against the recursive-doubling tree's V·log2(p) — the win the
// scale benchmarks record at 64+ ranks. Like the tree it needs a
// commutative op, and like every fold here the reductions are ordinary
// compute tasks: replicable, corruptible, bitwise-deterministic for
// integer-valued float64 data (see hier.go's package comment for the exact
// associativity conditions).
//
// The hierarchical Allgatherv follows hier.go's leader pattern: node-local
// phase over shared memory, one leader per node on the wire, node-local
// fan-out — auto-selected whenever the communicator is Hierarchical(), with
// message counts pinned by tests (it moves exactly the flat ring's n(n−1)
// messages, only placed better).
package dist

import (
	"errors"
	"fmt"
	"sort"

	"appfit/internal/buffer"
	"appfit/internal/rt"
)

// ErrVectorArgs reports invalid counts/displacements for a vector
// collective: wrong slice lengths, negative entries, segments outside the
// vector, or overlapping segments.
var ErrVectorArgs = errors.New("dist: vector collective counts/displacements invalid")

// checkVector validates a (counts, displs) segment layout over a total-element
// vector on an n-member communicator: one count and displacement per member,
// all non-negative, every segment inside [0, total), and no two non-empty
// segments overlapping. Violations record ErrVectorArgs and report false.
func (c *Comm) checkVector(op string, total int, counts, displs []int) bool {
	n := len(c.members)
	fail := func(msg string, args ...any) bool {
		args = append(args, ErrVectorArgs)
		c.w.addErr(fmt.Errorf("dist: "+op+": "+msg+": %w", args...))
		return false
	}
	if len(counts) != n || len(displs) != n {
		return fail("%d counts, %d displacements on a %d-member communicator", len(counts), len(displs), n)
	}
	for i := 0; i < n; i++ {
		if counts[i] < 0 || displs[i] < 0 {
			return fail("member %d has count %d, displacement %d", i, counts[i], displs[i])
		}
		if counts[i] > total-displs[i] { // displs[i]+counts[i] could overflow
			return fail("member %d segment of %d at %d outside a %d-element vector",
				i, counts[i], displs[i], total)
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return displs[order[a]] < displs[order[b]] })
	end, prev := -1, -1
	for _, i := range order {
		if counts[i] == 0 {
			continue
		}
		if displs[i] < end {
			return fail("member %d segment [%d, %d) overlaps member %d's ending at %d",
				i, displs[i], displs[i]+counts[i], prev, end)
		}
		end, prev = displs[i]+counts[i], i
	}
	return true
}

// Allgatherv leaves every member holding every member's segment of the
// vector for region name: member j contributes bufs[j][displs[j] :
// displs[j]+counts[j]], and after the collective every member's buffer holds
// all n segments (elements outside every segment are untouched). All buffers
// must have equal length. Both shapes move bitwise-identical payloads in
// n(n−1) messages; only the routing differs.
//
// On a flat communicator it runs one ring over the whole communicator (see
// ring), each message sized by the segment it carries. All of a member's
// plumbing shares the single region name, so the dataflow tracker
// serializes its steps and compute reading name is gated behind the whole
// exchange. Plumbing travels in ClassGatherv.
//
// On a communicator whose topology is non-flat (see Hierarchical) it runs
// the three leader phases of allgatherHier: members of one node trade their
// segments over shared memory (a local broadcast per segment, rooted at its
// owner), each leader broadcasts its node's segments to the other leaders —
// the only messages that cross the wire; each segment crosses each cable
// once, not once per consuming rank — and leaders fan the foreign segments
// out inside their nodes.
func (c *Comm) Allgatherv(tag int, name string, bufs []buffer.F64, counts, displs []int) {
	c.allgatherv(c.hier, tag, name, bufs, counts, displs)
}

// allgatherv validates an Allgatherv call and runs the chosen shape: hier
// forces the leader phases, else the flat ring.
func (c *Comm) allgatherv(hier bool, tag int, name string, bufs []buffer.F64, counts, displs []int) {
	if !c.checkVectors("Allgatherv", bufs) || !c.checkVector("Allgatherv", len(bufs[0]), counts, displs) {
		return
	}
	b := blocks{
		key: func(int) string { return name },
		at:  func(i, j int) buffer.Buffer { return bufs[i][displs[j] : displs[j]+counts[j]] },
	}
	if !hier {
		c.lane(ClassGatherv, tag, "allgatherv:"+name).ring(b)
		return
	}
	d := c.decomp()
	if d == nil {
		return
	}
	// Phase 1 — inside each node, every member's segment reaches its
	// node-mates over shared memory: one local broadcast per segment, rooted
	// at the owner's local rank.
	for _, grp := range d.groups {
		for jl, pj := range grp {
			d.locals[pj].bcast(jl, tag, name, b.column(grp, pj))
		}
	}
	d.exchange(tag, b)
}

// AllreduceRabenseifner is the bandwidth-optimal Allreduce for long vectors:
// a reduce-scatter by recursive vector halving — log2(p) rounds in which
// partners at distance 1, 2, …, p/2 exchange opposite halves of their
// current range and fold, leaving each member a fully reduced 1/p-slice —
// followed by an allgather by recursive doubling that reassembles the full
// vector, the doubling receives landing directly in the member's own buffer.
// Members beyond the largest power of two p ≤ n fold in and are served
// through the same bracket as AllreduceTree. Every member moves ~2·V
// elements total against the tree's V·log2(p), the classic
// Thakur/Rabenseifner result — at the price of 2× the message count, which
// is why plan reserves it for vectors past RabenseifnerCrossoverBytes.
//
// op must be commutative (members fold sub-ranges in different orders);
// results are bitwise-equal to AllreduceGather under the associativity
// conditions of hier.go's package comment (always for OpMin/OpMax, for
// OpSum when sums stay exactly representable). Folds are ordinary compute
// tasks: replicable, corruptible. Plumbing travels in ClassRab with the
// round index as the subchannel.
func (c *Comm) AllreduceRabenseifner(tag int, name string, bufs []buffer.F64, op ReduceOp) {
	c.allreduce(algRabenseifner, tag, name, bufs, op)
}

// allreduceRabenseifner is AllreduceRabenseifner's schedule.
func (c *Comm) allreduceRabenseifner(tag int, name string, bufs []buffer.F64, op ReduceOp) {
	r := &pow2{lane: c.lane(ClassRab, tag, "rab:"+name), kind: "rab", name: name, bufs: bufs, op: op}
	r.bracket(func(p int) {
		// [lo[i], hi[i]) is the range of the vector member i currently owns.
		lo, hi := make([]int, p), make([]int, p)
		for i := range hi {
			hi[i] = len(bufs[0])
		}
		// Reduce-scatter phase: recursive vector halving with distance doubling —
		// nearest partners first, so the largest payloads (V/2 in round 0) move
		// the shortest rank distances and only the smallest segments travel far.
		// On a placed fabric that keeps the big halves on intra-node links and
		// sends only O(V/p)-sized pieces across node cables. Partners at round k
		// differ only in bit `step`; all earlier rounds used lower bits, so
		// partners made identical keep/send decisions and share the same
		// [lo, hi) — each sends the half its partner keeps.
		round := 0
		for step := 1; step < p; step, round = step*2, round+1 {
			for i := 0; i < p; i++ {
				mid := lo[i] + (hi[i]-lo[i])/2
				keepLo, keepHi, sendLo, sendHi := lo[i], mid, mid, hi[i]
				if i&step != 0 {
					keepLo, keepHi, sendLo, sendHi = mid, hi[i], lo[i], mid
				}
				tmp := r.stage("rs", round, keepHi-keepLo)
				r.sendrecv(round, i, i^step, i^step, rt.In(name, bufs[i][sendLo:sendHi]), tmp)
				r.fold(i, keepLo, keepHi, tmp)
				lo[i], hi[i] = keepLo, keepHi
			}
		}
		// Allgather phase: recursive doubling of ranges with distance halving,
		// merging in reverse split order — farthest partners exchange the small
		// ranges first, nearest partners the near-full vectors last. Each pair
		// swaps its two ranges and then owns their union. The receive writes
		// the partner's slice of the member's own buffer directly, so the next
		// round's larger send is dataflow-gated on it through region name.
		for step := p / 2; step >= 1; step, round = step/2, round+1 {
			for i := 0; i < p; i++ {
				j := i ^ step
				if j < i {
					continue
				}
				mine, theirs := bufs[i][lo[i]:hi[i]], bufs[j][lo[j]:hi[j]]
				r.sendrecv(round, i, j, j, rt.In(name, mine), rt.Out(name, bufs[i][lo[j]:hi[j]]))
				r.sendrecv(round, j, i, i, rt.In(name, theirs), rt.Out(name, bufs[j][lo[i]:hi[i]]))
				lo[i], hi[i] = min(lo[i], lo[j]), max(hi[i], hi[j])
				lo[j], hi[j] = lo[i], hi[i]
			}
		}
	})
}
