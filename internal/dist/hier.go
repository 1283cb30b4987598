// Hierarchical collectives: the topology-aware shapes of Broadcast,
// Allgather and Allreduce, auto-selected by the dispatchers in
// collectives.go whenever the communicator's members share nodes (see
// Comm.Hierarchical). The structure is the standard one of topology-aware
// MPI (MVAPICH2-style leader-based collectives): split the group by node,
// run the cheap intra-node phase over shared memory, and let exactly one
// leader per node cross the wire — so a full payload crosses each
// node-pair cable once per node, not once per rank. All three phases are
// the flat schedules run on the cached node-local and leaders
// sub-communicators (topology.go), so every phase inherits the dataflow
// gating, fault model and context isolation already proven for them, and
// phases chain through the user's regions themselves: a leader's wire send
// reads the region its node-local phase wrote.
//
// Payload equality: Broadcast and Allgather move bytes without arithmetic,
// so their hierarchical results are bitwise-identical to the flat ones.
// allreduceHier folds node-locally first — op applications group
// ((node 0's members) ⊕ (node 1's members) ⊕ …), which both re-associates
// and (under a non-contiguous placement) reorders operands relative to the
// flat gather's strict comm-rank-order left fold. op must therefore be
// commutative, like AllreduceTree's: plan selects the hierarchical fold
// only for the builtin OpSum/OpMin/OpMax, and a custom op takes the
// rank-order gather path even on a placed communicator. Bitwise equality
// with the flat algorithms additionally needs associativity under the data
// in play: OpMin/OpMax always have it, and OpSum whenever sums stay exactly
// representable (e.g. integer-valued float64s below 2⁵³, the property the
// quick-check test in hier_test.go pins down). Replication and fault
// injection apply to the fold tasks exactly as in the flat algorithms; comm
// tasks are never replicated.
package dist

import (
	"slices"

	"appfit/internal/buffer"
)

// decomp returns the node decomposition a hierarchical schedule runs on, or
// nil when there is nothing to run: a one-member communicator (for which no
// contexts are minted) or a failed split, which is recorded.
func (c *Comm) decomp() *nodeDecomp {
	if len(c.members) == 1 {
		return nil
	}
	d, err := c.nodeComms()
	if err != nil {
		c.w.addErr(err)
		return nil
	}
	return d
}

// bcastHier is Broadcast in three placement-aware phases: root's node
// runs a local binomial tree rooted at root itself (so root's node-mates —
// its leader included — get the payload over shared memory, with no
// separate root→leader hop and no member ever receiving data it already
// holds), the leaders broadcast it across nodes through a tree whose every
// edge is a node-pair cable, and the other leaders fan it out inside their
// nodes. Exactly n−1 messages, like the flat tree — only their placement
// differs.
func (c *Comm) bcastHier(root, tag int, name string, bufs []buffer.Buffer) {
	d := c.decomp()
	if d == nil {
		return
	}
	g0 := d.groupOf[root]
	// Root's node first, rooted at root's local rank: its leader receives
	// over the memory bus before (dataflow-gated) shipping across the wire.
	d.locals[root].bcast(slices.Index(d.groups[g0], root), tag, name, pick(bufs, d.groups[g0]))
	d.leaders.bcast(g0, tag, name, pick(bufs, d.heads))
	for g, grp := range d.groups {
		if g != g0 {
			d.locals[grp[0]].bcast(0, tag, name, pick(bufs, grp))
		}
	}
}

// allgatherHier is Allgather in three placement-aware phases: a ring
// allgather inside each node (members of one node trade their blocks over
// shared memory), each leader broadcasting each of its node's blocks to the
// other leaders (the only messages that cross the wire — each block crosses
// each cable once, not once per consuming rank), and each leader fanning
// the foreign blocks out inside its node. The total message count equals
// the flat ring's n(n−1); only the placement of those messages changes.
func (c *Comm) allgatherHier(tag int, b blocks) {
	d := c.decomp()
	if d == nil {
		return
	}
	// Phase 1 — node-local rings: after it, every member holds every block
	// of its own node.
	for _, grp := range d.groups {
		d.locals[grp[0]].lane(ClassGather, tag, "allgather").ring(blocks{
			key: func(jl int) string { return b.key(grp[jl]) },
			at:  func(il, jl int) buffer.Buffer { return b.at(grp[il], grp[jl]) },
		})
	}
	d.exchange(tag, b)
}

// exchange runs the two phases allgatherHier and the hierarchical
// Allgatherv share once every member holds its own node's blocks. Leader
// exchange: leader g broadcasts each of its node's blocks to the other
// leaders, its send of block j dataflow-gated on the node-local receive
// that wrote region key(j). Then the node-local fan-out of every foreign
// block, gated on the leader-phase receive that delivered it. (The
// node-local phase before it differs per collective — a ring of equal
// blocks, a broadcast per ragged segment — and merging those would change
// which messages flow.)
func (d *nodeDecomp) exchange(tag int, b blocks) {
	for g, grp := range d.groups {
		for _, pj := range grp {
			d.leaders.bcast(g, tag, b.key(pj), b.column(d.heads, pj))
		}
	}
	for g, grp := range d.groups {
		if len(grp) == 1 {
			continue
		}
		for h, hgrp := range d.groups {
			if h == g {
				continue
			}
			for _, pj := range hgrp {
				d.locals[grp[0]].bcast(0, tag, b.key(pj), b.column(grp, pj))
			}
		}
	}
}

// allreduceHier is Allreduce in three placement-aware phases: each node
// folds its members' vectors into its leader over shared memory (comm-rank
// order within the node), the leaders allreduce their per-node partials —
// by whichever flat algorithm plan selects for their vectors; the leaders
// group is one rank per node — and each leader broadcasts the result inside
// its node. Full vectors cross each cable once per node instead of once per
// member. op must be commutative (operands are grouped and reordered by
// node); see the package comment for when the result is bitwise-equal to
// the flat algorithms.
func (c *Comm) allreduceHier(tag int, name string, bufs []buffer.F64, op ReduceOp) {
	d := c.decomp()
	if d == nil {
		return
	}
	for _, grp := range d.groups {
		d.locals[grp[0]].reduceAtZero(tag, name, pick(bufs, grp), op)
	}
	d.leaders.allreduce(algAuto, tag, name, pick(bufs, d.heads), op)
	for _, grp := range d.groups {
		d.locals[grp[0]].bcast(0, tag, name, anyBufs(pick(bufs, grp)))
	}
}
