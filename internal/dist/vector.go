// Non-uniform ("v") vector collectives and the Rabenseifner allreduce.
//
// Broadcast, Allgather and Allreduce in collectives.go assume every member
// contributes an equal-length block. The task-graph kernels the dist layer exists for
// (2D block-cyclic cholesky and friends) do not: a member owns whatever
// tiles the cyclic layout assigned it, so the natural collective exchanges
// per-member *segments* of one shared vector — MPI's Allgatherv and
// Reduce_scatter (recvcounts per rank). Both take a counts vector; segment
// boundaries are the classic (counts, displs) pair, validated up front into
// the named ErrVectorArgs.
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
// The hierarchical variants follow hier.go's leader pattern: node-local
// phase over shared memory, one leader per node on the wire, node-local
// fan-out — auto-selected whenever the communicator is Hierarchical(), with
// message counts pinned by tests (Allgatherv moves exactly the flat ring's
// n(n−1) messages, only placed better).
package dist

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"appfit/internal/buffer"
	"appfit/internal/rt"
)

// ErrVectorArgs reports invalid counts/displacements for a vector
// collective: wrong slice lengths, negative entries, segments outside the
// vector, or overlapping segments.
var ErrVectorArgs = errors.New("dist: vector collective counts/displacements invalid")

// subVecReduce is the subchannel of the hierarchical ReduceScatterv's
// node-local gather traffic; subVecDeliver offsets its per-segment delivery
// fan-out. Both sit outside the per-step/per-segment ranges the ring phases
// use, mirroring subTreePre/subTreePost.
const (
	subVecReduce  = 1<<20 + 2
	subVecDeliver = 1 << 21
)

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

// ReduceScatterv reduces every member's input vector for region in
// element-wise with op and scatters the result by segment: member i ends up
// holding the fully reduced counts[i]-element segment starting at
// displacement sum(counts[:i]) in outs[i] under region out — MPI's
// Reduce_scatter, whose recvcounts alone fix the layout. Every bufs[i] must
// hold sum(counts) elements and every outs[i] exactly counts[i]; inputs are
// left untouched. On a communicator whose topology is non-flat it runs the
// leader rings (rsv.leaderRings) when op is a builtin (commutative)
// operator; otherwise the flat ring (rsv.ring), whose strict ring-order
// fold is valid for any deterministic op.
func (c *Comm) ReduceScatterv(tag int, in, out string, bufs, outs []buffer.F64, counts []int, op ReduceOp) {
	c.reduceScatterv(c.hier && builtinCommutative(op), tag, in, out, bufs, outs, counts, op)
}

// vecDispls derives the dense displacement vector (prefix sums) and total
// element count of a counts vector.
func vecDispls(counts []int) (displs []int, total int) {
	displs = make([]int, len(counts))
	for i, cnt := range counts {
		displs[i] = total
		total += cnt
	}
	return displs, total
}

// rsv is one validated ReduceScatterv call: its arguments, the derived
// displacements, and the two compute tasks both shapes are built from.
type rsv struct {
	c          *Comm
	tag        int
	in, out    string
	bufs, outs []buffer.F64
	counts     []int
	displs     []int
	total      int
	op         ReduceOp
	prefix     string // of every staging region key of this call
}

// reduceScatterv validates a ReduceScatterv call and runs the chosen shape:
// hier forces the leader rings, else the flat ring.
func (c *Comm) reduceScatterv(hier bool, tag int, in, out string, bufs, outs []buffer.F64, counts []int, op ReduceOp) {
	const name = "ReduceScatterv"
	n := len(c.members)
	if !c.checkMembers(name, len(bufs)) || !c.checkMembers(name, len(outs)) {
		return
	}
	if len(counts) != n {
		c.w.addErr(fmt.Errorf("dist: %s: %d counts on a %d-member communicator: %w", name, len(counts), n, ErrVectorArgs))
		return
	}
	for i, cnt := range counts {
		if cnt < 0 {
			c.w.addErr(fmt.Errorf("dist: %s: member %d has count %d: %w", name, i, cnt, ErrVectorArgs))
			return
		}
	}
	displs, total := vecDispls(counts)
	for i := 0; i < n; i++ {
		if len(bufs[i]) != total || len(outs[i]) != counts[i] {
			c.w.addErr(fmt.Errorf("dist: %s member %d: input %d, output %d elements, want %d and %d: %w",
				name, i, len(bufs[i]), len(outs[i]), total, counts[i], ErrVectorArgs))
			return
		}
	}
	r := &rsv{c: c, tag: tag, in: in, out: out, bufs: bufs, outs: outs, counts: counts, displs: displs,
		total: total, op: op, prefix: fmt.Sprintf("%s:rsv:%d:%d:", collKey, c.ctx, tag)}
	if hier {
		if d := c.decomp(); d != nil {
			r.leaderRings(d)
			return
		}
	}
	r.ring()
}

// stage leases an n-element buffer under this call's staging region kind.
func (r *rsv) stage(kind string, n int) rt.Arg { return rt.Out(r.prefix+kind, r.c.w.stageF64(n)) }

// seed submits member i's copy of segment j of src — its own input, or a
// node's staged partial — into dst: the partial a ring starts from.
func (r *rsv) seed(i int, src rt.Arg, j int, dst rt.Arg) {
	lo, hi := r.displs[j], r.displs[j]+r.counts[j]
	r.c.members[i].rt.Submit("rsvinit", func(ctx *rt.Ctx) {
		copy(ctx.F64(1), ctx.F64(0)[lo:hi])
	}, src, dst)
}

// fold submits member i's ring-step fold for segment j: dst becomes the
// arrived partial with this holder's own contribution (segment j of own)
// folded in last, continuing the ring order. An ordinary compute task.
func (r *rsv) fold(i int, own rt.Arg, j int, arrived, dst rt.Arg) {
	lo, hi, op := r.displs[j], r.displs[j]+r.counts[j], r.op
	r.c.members[i].rt.Submit("rsvred", func(ctx *rt.Ctx) {
		d := ctx.F64(2)
		copy(d, ctx.F64(1))
		op(d, ctx.F64(0)[lo:hi])
	}, own, rt.In(arrived.Key, arrived.Buf), dst)
}

// ring is the flat ReduceScatterv: segment k's partial starts at member
// k+1 with just that member's contribution and travels the ring for n−1
// steps, each holder folding in its own contribution, arriving complete at
// member k — n(n−1) messages, each sized by the segment it carries.
// Contributions accumulate in ring order (member k+1 first, member k last),
// which a serial reference must replay for bitwise comparison; valid for
// any deterministic op. Folds are ordinary compute tasks (replicable,
// corruptible). Plumbing travels in ClassRedScatv with the ring step as the
// subchannel. Segment lengths differ per step, so the traveling partial
// gets a fresh buffer each fold — all under the one acc region, which
// chains the steps. A lone member's first partial is already its result.
func (r *rsv) ring() {
	n := len(r.c.members)
	l := r.c.lane(ClassRedScatv, r.tag, "rsv:"+r.in)
	for i := 0; i < n; i++ {
		own := rt.In(r.in, r.bufs[i])
		acc := rt.Out(r.out, r.outs[i])
		if n > 1 {
			acc = r.stage("acc", r.counts[mod(i-1, n)])
		}
		r.seed(i, own, mod(i-1, n), acc)
		for s := 0; s < n-1; s++ {
			blk := mod(i-s-2, n) // the segment arriving this step
			tmp := r.stage("t"+strconv.Itoa(s), r.counts[blk])
			l.sendrecv(s, i, (i+1)%n, mod(i-1, n), rt.In(acc.Key, acc.Buf), tmp)
			acc = rt.Out(r.out, r.outs[i]) // blk == i on the last step
			if s < n-2 {
				acc = r.stage("acc", r.counts[blk])
			}
			r.fold(i, own, blk, tmp, acc)
		}
	}
}

// leaderRings is the topology-aware ReduceScatterv: each node folds its
// members' full input vectors into a staged vector at its leader over
// shared memory (node-local comm-rank order), each segment's per-node
// partials then travel the *leader* ring — starting at the owner's
// successor leader and arriving fully reduced at the owner's leader, so a
// segment crosses G−1 cables instead of n−1 — and leaders deliver the
// finished segments to their node-mates. Operands group and reorder by
// node, so op must be commutative; ReduceScatterv selects this path only
// for the builtin operators. Inputs are left untouched, like the flat
// ring's. See hier.go's package comment for when results are bitwise-equal
// to the flat algorithms.
func (r *rsv) leaderRings(d *nodeDecomp) {
	c, n, G := r.c, len(r.c.members), len(d.groups)
	// Phase 1 — node-local gather: fold each node's full vectors into a
	// staged vector at the leader, in node-local rank order. The stage — not
	// the leader's own buffer — accumulates, so inputs stay untouched like
	// the flat ring's.
	stages := make([]rt.Arg, G) // each node's partial, as its leader reads it
	for g, grp := range d.groups {
		stage := r.stage("stage", r.total)
		stages[g] = rt.In(stage.Key, stage.Buf)
		got := d.locals[grp[0]].lane(ClassRedScatv, r.tag, "rsvgather:"+r.in).
			gatherAtZero(subVecReduce, r.in, pick(r.bufs, grp), r.prefix+"g")
		op := r.op
		c.members[grp[0]].rt.Submit("rsvnode", func(ctx *rt.Ctx) {
			st := ctx.F64(0)
			copy(st, ctx.F64(1))
			for a := 2; a < ctx.NArgs(); a++ {
				op(st, ctx.F64(a))
			}
		}, append([]rt.Arg{stage, rt.In(r.in, r.bufs[grp[0]])}, got...)...)
	}
	// Phase 2 — per-segment leader ring: segment pj (owner in group g)
	// starts at leader (g+1) mod G as a copy of that node's staged partial
	// and travels the ring, each leader folding its node's partial in,
	// arriving complete at leader g. Each segment rides its own region key,
	// so segments pipeline independently; the hop subchannel is the owner's
	// comm rank, unique per ordered leader pair.
	hops := d.leaders.lane(ClassRedScatv, r.tag, "rsvring:"+r.in)
	final := make([]rt.Arg, n) // the finished segment, at its owner's leader
	for pj := 0; pj < n; pj++ {
		h, g := "h"+strconv.Itoa(pj), d.groupOf[pj]
		if r.counts[pj] == 0 {
			final[pj] = rt.In(r.prefix+h, buffer.F64{})
			continue
		}
		acc := r.stage(h, r.counts[pj])
		r.seed(d.heads[(g+1)%G], stages[(g+1)%G], pj, acc)
		for s := 0; s < G-1; s++ {
			cur, nxt := (g+1+s)%G, (g+2+s)%G
			tmp := r.stage("r"+strconv.Itoa(pj), r.counts[pj])
			hops.transfer(pj, cur, nxt, rt.In(acc.Key, acc.Buf), tmp)
			acc = r.stage(h, r.counts[pj])
			r.fold(d.heads[nxt], stages[nxt], pj, tmp, acc)
		}
		final[pj] = rt.In(acc.Key, acc.Buf)
	}
	// Phase 3 — delivery: the owner's leader hands each finished segment to
	// its owner (a node-local copy when the owner is the leader itself), on
	// the parent context so the fan-out can never rendezvous with ring hops.
	deliver := c.lane(ClassRedScatv, r.tag, "rsvout:"+r.out)
	for pj := 0; pj < n; pj++ {
		leader, dst := d.heads[d.groupOf[pj]], rt.Out(r.out, r.outs[pj])
		if pj == leader {
			c.members[pj].rt.Submit("rsvout", func(ctx *rt.Ctx) {
				copy(ctx.F64(1), ctx.F64(0))
			}, final[pj], dst)
			continue
		}
		deliver.transfer(subVecDeliver+pj, leader, pj, final[pj], dst)
	}
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
