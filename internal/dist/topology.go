// Topology-aware communicator machinery: splitByNode derives node-local
// sub-communicators and a leaders communicator from the World's placement,
// and the cached node decomposition backs the hierarchical collectives
// (hier.go), which auto-select whenever a communicator's members share
// nodes. The decomposition is pure sugar over Split — node id as the color,
// parent comm rank as the key — so everything proven about Split (context
// isolation, dense re-numbering, deterministic minting) carries over.
package dist

import (
	"fmt"
	"sort"
)

// nodeDecomp is a communicator's placement decomposition, minted once per
// Comm (nodeComms) and reused by every hierarchical collective on it.
type nodeDecomp struct {
	// groups lists the parent comm ranks of each occupied node, in
	// ascending node-id order; within a group members keep parent order, so
	// groups[g][0] — the node leader — is the group's lowest parent rank.
	groups [][]int
	// heads lists each group's leader, groups[g][0], by group index.
	heads []int
	// groupOf maps a parent comm rank to its index in groups.
	groupOf []int
	// locals[i] is parent member i's node-local communicator: members of
	// one group share one *Comm and are numbered by parent order, so the
	// leader is always local rank 0.
	locals []*Comm
	// leaders is the communicator of the node leaders, one per group,
	// numbered by group index: leaders rank g is groups[g][0].
	leaders *Comm
}

// commHier reports whether a communicator over these members should run
// hierarchical collectives: a placement exists, the members span at least
// two nodes, and at least one node hosts two or more of them. A flat
// placement (or a purely node-local or one-rank-per-node group) keeps the
// flat algorithms — bitwise-identically to a World with no topology.
func commHier(w *World, members []*Rank) bool {
	// Flat() is precomputed, so a one-rank-per-node World answers without
	// walking the members at all.
	if w.topo == nil || len(members) < 2 || w.topo.Flat() {
		return false
	}
	counts := make(map[int]int, len(members))
	shared := false
	for _, r := range members {
		nd := w.nodeOf(r.id)
		counts[nd]++
		if counts[nd] > 1 {
			shared = true
		}
	}
	return shared && len(counts) > 1
}

// nodeComms returns the communicator's cached node decomposition, minting
// it on first use. Lazy minting keeps the context-id sequence of worlds
// that never go hierarchical identical to pre-topology builds.
func (c *Comm) nodeComms() (*nodeDecomp, error) {
	c.nodeOnce.Do(func() { c.node, c.nodeErr = c.splitByNode() })
	return c.node, c.nodeErr
}

// splitByNode partitions the communicator by the World topology's
// placement: one Split with the member's node id as the color and its
// parent comm rank as the key gives the locals, indexed by parent comm rank
// (each group's lowest parent rank is local rank 0 — the node leader); a
// second Split gives the leaders communicator, numbered in ascending
// node-id order. On a World without a topology every member is its own
// node. Each call mints fresh matching contexts; the collectives go through
// nodeComms' cached decomposition, so they mint once.
func (c *Comm) splitByNode() (*nodeDecomp, error) {
	n := len(c.members)
	colors := make([]int, n)
	keys := make([]int, n)
	for i := range c.members {
		colors[i] = c.w.nodeOf(c.worldID(i))
		keys[i] = i
	}
	locals, err := c.Split(colors, keys)
	if err != nil {
		return nil, fmt.Errorf("dist: node split: %w", err)
	}
	d := &nodeDecomp{locals: locals, groupOf: make([]int, n)}
	// Group parent ranks by node in ascending node-id order — the same
	// order Split minted the local contexts in.
	byNode := make(map[int][]int, n)
	var nodes []int
	for i, col := range colors {
		if _, ok := byNode[col]; !ok {
			nodes = append(nodes, col)
		}
		byNode[col] = append(byNode[col], i)
	}
	sort.Ints(nodes)
	for g, nd := range nodes {
		grp := byNode[nd]
		d.groups = append(d.groups, grp)
		d.heads = append(d.heads, grp[0])
		for _, pi := range grp {
			d.groupOf[pi] = g
		}
	}
	// Leaders split: group leaders in color 0 keyed by group index (so the
	// leaders comm is numbered in node order); everyone else in color 1.
	lcolors := make([]int, n)
	lkeys := make([]int, n)
	for i := range lcolors {
		lcolors[i], lkeys[i] = 1, i
	}
	for g, grp := range d.groups {
		lcolors[grp[0]], lkeys[grp[0]] = 0, g
	}
	subs, err := c.Split(lcolors, lkeys)
	if err != nil {
		return nil, fmt.Errorf("dist: node split leaders: %w", err)
	}
	d.leaders = subs[d.groups[0][0]]
	return d, nil
}
