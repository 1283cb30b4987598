// Hierarchical collectives: the topology-aware shapes of Broadcast,
// Allgather and Allreduce, auto-selected by the dispatchers in
// collectives.go whenever the communicator's members share nodes (see
// Comm.Hierarchical). The structure is the standard one of topology-aware
// MPI (MVAPICH2-style leader-based collectives): group the members by node,
// run the cheap intra-node phase over shared memory, and let exactly one
// leader per node cross the wire — so a full payload crosses each
// node-pair cable once per node, not once per rank. Every phase is a flat
// schedule run on a view of the communicator (nodes): a *Comm over a subset
// of its members that shares its matching context and its per-member
// tokens, so no phase mints a context or a token, and every phase inherits
// the dataflow gating and fault model already proven for the flat
// schedules. Phases chain through the user's regions themselves: a
// leader's wire send reads the region its node-local phase wrote.
//
// Sharing one context is safe because no two phases of one collective share
// a mailbox Match — a node-local phase pairs only node-mates, the leader
// phase only leaders on distinct nodes — and because each member submits
// and matches its comm tasks in one order through its one token, which
// keeps same-tag calls FIFO-consistent, flat and hierarchical alike (the
// contract of collectives.go). Staging regions stay per phase: a view's
// stage letter scopes the names reduceAtZero and pow2.stage give them.
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
	"cmp"
	"slices"

	"appfit/internal/buffer"
)

// nodeGroups is a communicator's members grouped by node: built once per
// Comm and read by Hierarchical and every hierarchical schedule on it.
type nodeGroups struct {
	// groups lists the comm ranks on each occupied node, in ascending
	// node-id order; within a group members keep comm order, so
	// groups[g][0] — the node leader — is the group's lowest comm rank.
	groups [][]int
	// heads lists each group's leader, groups[g][0], by group index.
	heads []int
	// groupOf maps a comm rank to its index in groups.
	groupOf []int
	// locals[g] is the view of group g, its leader at view rank 0;
	// leaders is the view of heads, leader g at view rank g.
	locals  []*Comm
	leaders *Comm
}

// nodes returns the communicator's grouping by node, building it on first
// use. On a World without a topology every member is its own node.
func (c *Comm) nodes() *nodeGroups {
	c.nodeOnce.Do(func() {
		n := len(c.members)
		node := func(i int) int { return c.w.nodeOf(c.members[i].id) }
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(node(a), node(b)) })
		// Each group is a window of order, grown in place.
		d := &nodeGroups{groupOf: make([]int, n)}
		for k, i := range order {
			if k == 0 || node(i) != node(order[k-1]) {
				d.groups = append(d.groups, order[k:k])
			}
			g := len(d.groups) - 1
			d.groups[g] = append(d.groups[g], i)
			d.groupOf[i] = g
		}
		for _, grp := range d.groups {
			d.heads = append(d.heads, grp[0])
			d.locals = append(d.locals, c.view(grp, "n"))
		}
		d.leaders = c.view(d.heads, "l")
		c.node = d
	})
	return c.node
}

// view is the communicator over members idx of c, in that order: c's
// context and tokens, its own staging scope.
func (c *Comm) view(idx []int, stage string) *Comm {
	return &Comm{w: c.w, ctx: c.ctx, members: pick(c.members, idx), toks: pick(c.toks, idx), stage: c.stage + stage}
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
	d := c.nodes()
	g0 := d.groupOf[root]
	// Root's node first, rooted at root's local rank: its leader receives
	// over the memory bus before (dataflow-gated) shipping across the wire.
	d.locals[g0].bcast(slices.Index(d.groups[g0], root), tag, name, pick(bufs, d.groups[g0]))
	d.leaders.bcast(g0, tag, name, pick(bufs, d.heads))
	for g, grp := range d.groups {
		if g != g0 {
			d.locals[g].bcast(0, tag, name, pick(bufs, grp))
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
	d := c.nodes()
	// Phase 1 — node-local rings: after it, every member holds every block
	// of its own node.
	for g, grp := range d.groups {
		d.locals[g].lane(ClassGather, tag, "allgather").ring(blocks{
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
func (d *nodeGroups) exchange(tag int, b blocks) {
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
				d.locals[g].bcast(0, tag, b.key(pj), b.column(grp, pj))
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
	d := c.nodes()
	for g, grp := range d.groups {
		d.locals[g].reduceAtZero(tag, name, pick(bufs, grp), op)
	}
	d.leaders.allreduce(algAuto, tag, name, pick(bufs, d.heads), op)
	for g, grp := range d.groups {
		d.locals[g].bcast(0, tag, name, anyBufs(pick(bufs, grp)))
	}
}
