// Comm is the communicator layer: the sole public handle for communication
// on a World, the in-process equivalent of an MPI communicator. Every
// point-to-point operation and every collective is scoped to a Comm.
//
// A Comm is an ordered group of World ranks with two properties world rank
// ids alone could not give:
//
//   - dense private numbering: member i of a Comm is addressed as comm rank
//     i (0..Size()-1), however its members are scattered over the World —
//     Split re-numbers by (color, key) exactly like MPI_Comm_split;
//   - a private matching context: every Match carries the communicator's
//     context id, minted at Split time, so traffic on one communicator can
//     never rendezvous with traffic on another even when both use identical
//     tags between the same physical ranks (a sub-communicator and its
//     parent always share ranks, so tags alone cannot isolate them).
//
// Context minting is the collective agreement MPI performs inside
// MPI_Comm_split: every member of a new group must observe the same fresh
// id. Our Worlds are orchestrated in-process, so Split is one call carrying
// every member's (color, key) at once — the analogue of all members calling
// MPI_Comm_split — and agreement is by construction: ids are drawn from a
// World-level counter, one per color in ascending color order, so a replay
// of the same Split sequence mints the same ids.
package dist

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"appfit/internal/buffer"
	"appfit/internal/rt"
)

// Named argument errors. They are recorded in the World's error set (see
// World.Err / World.Shutdown) by the chaining accessors, and returned
// directly by Split.
var (
	// ErrRankOutOfRange reports a rank index outside [0, Size).
	ErrRankOutOfRange = errors.New("dist: rank index out of range")
	// ErrSplitSize reports Split argument slices whose length differs from
	// the communicator size.
	ErrSplitSize = errors.New("dist: Split: colors and keys need one entry per member")
	// ErrSplitColor reports a negative Split color.
	ErrSplitColor = errors.New("dist: Split: negative color")
	// ErrSplitKey reports two members of one color with the same key, which
	// would leave the new communicator's rank order ambiguous.
	ErrSplitKey = errors.New("dist: Split: duplicate key within a color")
	// ErrCollectiveArgs reports a collective whose per-member buffer slices
	// do not match the communicator size, or whose buffers differ in length
	// where the collective needs one length, or any operation handed a nil
	// buffer.
	ErrCollectiveArgs = errors.New("dist: collective buffers do not match the communicator size")
	// ErrTopology reports a World Config whose topology places fewer ranks
	// than the World holds.
	ErrTopology = errors.New("dist: topology does not cover the world's ranks")
)

// Comm is a communicator: an ordered group of ranks with a private matching
// context. World.Comm returns the world communicator spanning every rank;
// Split derives sub-communicators. Address members with Rank, which yields
// the per-member handle all point-to-point operations live on; collectives
// (Barrier, Broadcast, Allgather, Allgatherv, Allreduce) are Comm methods
// that submit every member's side at once. Inside the package a Comm may
// also be a view (hier.go): a subset of another's members under its
// context and tokens, with no handles, on which the hierarchical phases
// run.
type Comm struct {
	w       *World
	ctx     uint64
	members []*Rank    // comm rank -> world rank
	handles []CommRank // preallocated per-member handles
	// toks serialize each member's collective plumbing through an Inout
	// access on a context-private reserved region, so back-to-back
	// collectives on one communicator stay FIFO-consistent per member while
	// collectives on sibling or parent communicators can still interleave.
	// Each is built — its one-byte buffer boxed — once per member, not once
	// per comm task; a view shares its parent's.
	toks []rt.Arg
	// stage scopes the staging regions of this communicator's collectives
	// next to its context id: empty on a minted communicator, a phase
	// letter on a view (see hier.go), which shares its parent's context.
	stage string
	// node is the members' grouping by node, built on first use (nodes).
	nodeOnce sync.Once
	node     *nodeGroups
}

// newComm builds the group state for the given members under context id ctx.
func newComm(w *World, ctx uint64, members []*Rank) *Comm {
	c := &Comm{
		w:       w,
		ctx:     ctx,
		members: members,
		handles: make([]CommRank, len(members)),
		toks:    make([]rt.Arg, len(members)),
	}
	tokKey := fmt.Sprintf("%s:tok:%d", collKey, ctx)
	for i := range members {
		c.handles[i] = CommRank{c: c, id: i}
		c.toks[i] = rt.Inout(tokKey, buffer.U8{0})
	}
	return c
}

// Comm returns the world communicator: every rank, in world order, context
// id 0.
func (w *World) Comm() *Comm { return w.world }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// Hierarchical reports whether the communicator auto-selects hierarchical
// collectives: the World's topology places its members across at least two
// nodes, at least one of which hosts two or more of them. A flat placement
// keeps the flat algorithms, bitwise-identically to a World with no
// topology.
func (c *Comm) Hierarchical() bool {
	if c.w.topo == nil || c.w.topo.Flat() {
		return false
	}
	g := len(c.nodes().groups)
	return g >= 2 && g < len(c.members)
}

// Rank returns member i's handle. An out-of-range i records
// ErrRankOutOfRange in the World's error set (reported by Shutdown)
// and returns an inert handle whose operations are no-ops, so chained calls
// stay panic-free.
func (c *Comm) Rank(i int) *CommRank {
	if i < 0 || i >= len(c.members) {
		c.w.addErr(fmt.Errorf("dist: Comm.Rank(%d) of %d members: %w", i, len(c.members), ErrRankOutOfRange))
		return &CommRank{c: c, id: -1}
	}
	return &c.handles[i]
}

// tokArg is member i's collective-plumbing token access.
func (c *Comm) tokArg(i int) rt.Arg { return c.toks[i] }

// world returns member i's world rank id.
func (c *Comm) worldID(i int) int { return c.members[i].id }

// Split partitions the communicator into sub-communicators, one per
// distinct color: member i joins the group of colors[i], and within a group
// members are re-numbered densely 0..size-1 in ascending keys[i] order —
// the in-process analogue of every member calling MPI_Comm_split(color,
// key). The returned slice is indexed by parent comm rank: subs[i] is
// member i's new communicator, and members of one color share the same
// *Comm. Each new group gets a fresh matching context id, so traffic on a
// sub-communicator can never rendezvous with the parent's or a sibling's,
// even under identical tags.
//
// Arguments are validated collectively: a length mismatch (ErrSplitSize), a
// negative color (ErrSplitColor) or two members of one color with equal
// keys (ErrSplitKey) returns a named error and mints nothing.
func (c *Comm) Split(colors, keys []int) ([]*Comm, error) {
	n := len(c.members)
	if len(colors) != n || len(keys) != n {
		return nil, fmt.Errorf("dist: Split on a %d-member communicator with %d colors, %d keys: %w",
			n, len(colors), len(keys), ErrSplitSize)
	}
	byColor := make(map[int][]int) // color -> parent comm ranks
	for i, col := range colors {
		if col < 0 {
			return nil, fmt.Errorf("dist: Split: member %d has color %d: %w", i, col, ErrSplitColor)
		}
		byColor[col] = append(byColor[col], i)
	}
	order := make([]int, 0, len(byColor))
	for col := range byColor {
		order = append(order, col)
	}
	sort.Ints(order)
	for _, col := range order {
		group := byColor[col]
		sort.SliceStable(group, func(a, b int) bool { return keys[group[a]] < keys[group[b]] })
		for j := 1; j < len(group); j++ {
			if keys[group[j]] == keys[group[j-1]] {
				return nil, fmt.Errorf("dist: Split: members %d and %d of color %d share key %d: %w",
					group[j-1], group[j], col, keys[group[j]], ErrSplitKey)
			}
		}
	}
	subs := make([]*Comm, n)
	for _, col := range order {
		group := byColor[col]
		members := make([]*Rank, len(group))
		for j, pi := range group {
			members[j] = c.members[pi]
		}
		// One fresh context per color, drawn in ascending color order: every
		// member of the group observes the same id by construction, and the
		// same Split sequence always mints the same ids.
		sub := newComm(c.w, c.w.nextCtx.Add(1), members)
		for _, pi := range group {
			subs[pi] = sub
		}
	}
	return subs, nil
}

// CommRank is one member's view of a communicator: its dense comm-local
// rank plus the underlying world rank. All point-to-point operations live
// here, scoped to the communicator's matching context.
type CommRank struct {
	c  *Comm
	id int // comm-local rank; -1 marks the inert out-of-range handle
}

// Runtime returns the member's dataflow runtime, for submitting compute
// tasks (nil for an inert handle).
func (cr *CommRank) Runtime() *rt.Runtime {
	if cr.id < 0 {
		return nil
	}
	return cr.c.members[cr.id].rt
}

// checkPartner validates a comm-local partner rank for a point-to-point
// operation; an invalid handle or partner records ErrRankOutOfRange and
// reports false.
func (cr *CommRank) checkPartner(op string, partner int) bool {
	if cr.id < 0 {
		return false // Comm.Rank already recorded the error
	}
	if partner < 0 || partner >= len(cr.c.members) {
		cr.c.w.addErr(fmt.Errorf("dist: comm rank %d %s partner %d of %d members: %w",
			cr.id, op, partner, len(cr.c.members), ErrRankOutOfRange))
		return false
	}
	return true
}

// checkBufs records ErrCollectiveArgs and reports false when one of an
// operation's buffers is nil. A comm task dereferences its buffer on a
// worker goroutine, where nothing could recover the panic, so a nil buffer
// is refused before anything is submitted.
func (c *Comm) checkBufs(op string, bufs ...buffer.Buffer) bool {
	for i, b := range bufs {
		if b == nil {
			c.w.addErr(fmt.Errorf("dist: %s buffer %d of %d is nil: %w", op, i, len(bufs), ErrCollectiveArgs))
			return false
		}
	}
	return true
}

// Send submits a communication task that ships a snapshot of buf to the
// comm-local partner rank under tag once every prior task writing region
// name has completed. The send is eager: it buffers the snapshot in the
// transport and completes without waiting for the matching Recv. Matching
// is scoped to this communicator's context. It returns the task id (0 if
// the handle or partner is out of range or buf is nil; the error is
// recorded in the World).
func (cr *CommRank) Send(partner, tag int, name string, buf buffer.Buffer) uint64 {
	if !cr.checkPartner("Send", partner) || !cr.c.checkBufs("Send", buf) {
		return 0
	}
	c := cr.c
	r := c.members[cr.id]
	m := Match{Ctx: c.ctx, Src: r.id, Dst: c.worldID(partner), Class: ClassP2P, Tag: tag}
	return r.commSend("send:"+name+">"+strconv.Itoa(partner), m, 0, rt.In(name, buf))
}

// Recv submits a communication task that completes when the matching message
// from the comm-local partner rank under tag arrives in this communicator's
// context and is copied into buf; tasks reading region name afterwards are
// gated behind it. A pending receive holds no worker. A type or length
// mismatch between the payload and buf is recorded as a World error. It
// returns the task id (0 if the handle or partner is out of range or buf is
// nil; the error is recorded in the World).
func (cr *CommRank) Recv(partner, tag int, name string, buf buffer.Buffer) uint64 {
	if !cr.checkPartner("Recv", partner) || !cr.c.checkBufs("Recv", buf) {
		return 0
	}
	c := cr.c
	r := c.members[cr.id]
	m := Match{Ctx: c.ctx, Src: c.worldID(partner), Dst: r.id, Class: ClassP2P, Tag: tag}
	return r.commRecv("recv:"+name+"<"+strconv.Itoa(partner), m, 0, rt.Out(name, buf))
}
