// Package deps builds the task dependency graph from declared data accesses,
// exactly as a dataflow runtime like Nanos does (paper §II-B): tasks are
// registered in program order, each declaring the regions it reads (in),
// writes (out) or both (inout); the tracker derives read-after-write,
// write-after-read and write-after-write edges and maintains the ready set.
//
// Regions are identified by opaque string keys (e.g. "A[2][3]"); the runtime
// layers actual buffers on top. The tracker is safe for a single registering
// goroutine with concurrent completions, which matches how a task-parallel
// program submits: one main thread creates tasks while workers finish them.
//
// The graph is one of nodes, each carrying its caller's payload (the
// runtime's task record): a region names its last writer and readers by node
// pointer, so registering looks nothing up, and completing a node hands back
// the payloads it released. Region state is the registering goroutine's
// private table (no completion ever reads it, so it has no lock), and
// per-node pending counts are atomics guarded against premature release by a
// registration token. Complete calls on nodes with disjoint successor sets
// touch no common lock, so completions on independent subgraphs never
// serialize (see DESIGN.md §6). Tracker is the same graph addressed by task
// id.
package deps

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"appfit/internal/xrand"
)

// Mode declares how a task accesses a region.
type Mode int

const (
	// In declares a read-only access.
	In Mode = iota
	// Out declares a write-only access (the previous value is not read).
	Out
	// Inout declares a read-modify-write access.
	Inout
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case In:
		return "in"
	case Out:
		return "out"
	case Inout:
		return "inout"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Reads reports whether the mode implies reading the prior value.
func (m Mode) Reads() bool { return m == In || m == Inout }

// Writes reports whether the mode implies writing a new value.
func (m Mode) Writes() bool { return m == Out || m == Inout }

// Access is one declared (region, mode) pair.
type Access struct {
	Key  string
	Mode Mode
}

// regionState tracks, per region, the last task that wrote it and the tasks
// that have read it since that write. Writers depend on the previous writer
// (WAW) and all readers since (WAR); readers depend on the last writer (RAW).
// Region state is only ever touched by the registering goroutine, so neither
// it nor the table holding it needs a lock. K names a task; its zero value
// is "none".
type regionState[K comparable] struct {
	lastWriter K
	readers    []K
}

// table is a registrar's region table together with the working memory
// derivePreds needs, kept between registrations so deriving a task's edges
// allocates nothing once the slices have grown to the widest task. The zero
// value is an empty table.
type table[K comparable] struct {
	m      map[string]*regionState[K]
	states []*regionState[K]
	preds  []K
}

// regions is a table naming tasks by id.
type regions = table[uint64]

// dedupScan is the predecessor count up to which duplicates are dropped by
// comparing against the ones already kept; a longer list is de-duplicated
// through a set, so a writer behind a thousand readers stays linear.
const dedupScan = 16

// derivePreds is the one edge-derivation rule: scan every access against its
// region state collecting predecessors, then apply the state updates, so a
// task that both reads and writes disjoint declarations of the same key
// behaves like inout. The predecessors come back without duplicates, in the
// order the accesses first named them, in memory the next call overwrites.
func (r *table[K]) derivePreds(id K, accesses []Access) []K {
	if r.m == nil {
		r.m = make(map[string]*regionState[K])
	}
	var none K
	r.states, r.preds = r.states[:0], r.preds[:0]
	for _, a := range accesses {
		rs := r.m[a.Key]
		if rs == nil {
			rs = &regionState[K]{}
			r.m[a.Key] = rs
		}
		r.states = append(r.states, rs)
		if rs.lastWriter != none && (a.Mode.Reads() || a.Mode.Writes()) {
			r.preds = append(r.preds, rs.lastWriter) // RAW, WAW
		}
		if a.Mode.Writes() {
			for _, rd := range rs.readers {
				if rd != id {
					r.preds = append(r.preds, rd) // WAR
				}
			}
		}
	}
	for i, a := range accesses {
		rs := r.states[i]
		if a.Mode.Writes() {
			rs.lastWriter = id
			rs.readers = rs.readers[:0]
		}
		if a.Mode == In {
			rs.readers = append(rs.readers, id)
		}
	}
	clear(r.states) // a dropped region must not stay reachable from scratch
	r.preds = dedup(r.preds)
	return r.preds
}

// dedup drops repeated entries from xs in place, keeping first occurrences
// in order.
func dedup[K comparable](xs []K) []K {
	if len(xs) <= dedupScan {
		kept := xs[:0]
		for _, x := range xs {
			if !slices.Contains(kept, x) {
				kept = append(kept, x)
			}
		}
		return kept
	}
	seen := make(map[K]struct{}, len(xs))
	kept := xs[:0]
	for _, x := range xs {
		if _, dup := seen[x]; !dup {
			seen[x] = struct{}{}
			kept = append(kept, x)
		}
	}
	return kept
}

// Node is one registered task, carrying its caller's payload Val. pending
// counts unfinished predecessors plus, while Register is still adding edges,
// one registration token that keeps a racing Complete of an early
// predecessor from releasing the node before its remaining edges exist. mu
// guards done and successors — the only state a Register (appending an edge)
// and a Complete (draining edges) can contend on, and only when the two
// nodes are adjacent in the graph. The first successor lives in first, so a
// chain links without allocating. A completed node keeps neither successors
// nor payload: a region still naming it as last writer pins nothing else.
type Node[T any] struct {
	Val     T
	pending atomic.Int32

	mu         sync.Mutex
	done       bool
	successors []*Node[T]
	first      [1]*Node[T]
}

// Graph is a dependency graph over nodes carrying T. Register is
// single-goroutine (the program's submitting thread); Complete and the
// counters may be called concurrently from any goroutine. The zero value is
// an empty graph.
type Graph[T any] struct {
	// regions belongs to the registering goroutine alone: Complete never
	// looks at a region.
	regions table[*Node[T]]
	derived atomic.Int64
}

// Register adds n, a fresh node, with its declared accesses, in program
// order. It returns true if n has no unfinished predecessors and is
// immediately ready to run. Register must be called from a single
// goroutine; Complete may run concurrently.
func (g *Graph[T]) Register(n *Node[T], accesses []Access) (ready bool) {
	// The registration token: pending cannot reach zero — and n cannot be
	// released by a concurrent Complete — until the final Add(-1) below,
	// after every edge has been counted.
	n.pending.Store(1)
	n.successors = n.first[:0]
	preds := g.regions.derivePreds(n, accesses)
	g.derived.Add(int64(len(preds)))
	for _, pn := range preds {
		pn.mu.Lock()
		if !pn.done {
			pn.successors = append(pn.successors, n)
			n.pending.Add(1)
		}
		pn.mu.Unlock()
	}
	return n.pending.Add(-1) == 0
}

// Complete marks n finished and appends to ready the payloads of the nodes
// that became ready as a result, as a batch the caller can hand to the
// scheduler in one submission. Complete calls on nodes with disjoint
// successor sets share no lock. Each node must be completed exactly once.
func (g *Graph[T]) Complete(n *Node[T], ready []T) []T {
	n.mu.Lock()
	if n.done {
		n.mu.Unlock()
		panic("deps: node completed twice")
	}
	n.done = true
	succs := n.successors
	n.successors = nil
	var none T
	n.Val = none
	n.mu.Unlock()
	for _, s := range succs {
		switch p := s.pending.Add(-1); {
		case p == 0:
			ready = append(ready, s.Val)
		case p < 0:
			panic("deps: negative pending count")
		}
	}
	n.first[0] = nil // succs may have been this slot, so drop it only now
	return ready
}

// DerivedEdges returns the number of dependency edges the accesses declare,
// whether or not the predecessor had already completed: a property of the
// submitted program, not of its timing.
func (g *Graph[T]) DerivedEdges() int { return int(g.derived.Load()) }

// nodeShards is the id table's striping width. 64 keeps the per-Tracker
// footprint small while making two concurrent completions collide on a shard
// lock only 1/64 of the time; a power of two so the shard index is a mask,
// not a modulo.
const nodeShards = 64

// nodeShard is one stripe of the id table. Its map is built by the first
// Register that hashes here, so a tracker pays for the stripes it uses.
type nodeShard struct {
	mu sync.Mutex
	m  map[uint64]*Node[uint64] // guarded by mu
}

// Tracker is a Graph addressed by task id: each node's payload is its id,
// and a striped id table finds the node Complete and Pending name. Register
// is single-goroutine; Complete and Pending may be called concurrently from
// any goroutine. The zero value is an empty tracker.
type Tracker struct {
	g     Graph[uint64]
	nodes [nodeShards]nodeShard
}

// NewTracker returns an empty Tracker.
func NewTracker() *Tracker { return &Tracker{} }

// nodeShard is id's stripe: dense task ids are hashed so they spread over
// the shards instead of marching through them in order.
func (t *Tracker) nodeShard(id uint64) *nodeShard {
	return &t.nodes[xrand.Mix64(id)&(nodeShards-1)]
}

// Register adds task id (must be nonzero and never used before) with its
// declared accesses, in program order. It returns true if the task has no
// unfinished predecessors and is immediately ready to run. Register must be
// called from a single goroutine; Complete may run concurrently.
//
// Duplicate detection is best-effort: reusing a live id panics, but because
// completed ids leave the table, reusing an already-completed id is not
// caught.
func (t *Tracker) Register(id uint64, accesses []Access) (ready bool) {
	if id == 0 {
		panic("deps: task id 0 is reserved")
	}
	n := &Node[uint64]{Val: id}
	sh := t.nodeShard(id)
	sh.mu.Lock()
	if _, dup := sh.m[id]; dup {
		sh.mu.Unlock()
		panic(fmt.Sprintf("deps: duplicate task id %d", id))
	}
	if sh.m == nil {
		sh.m = make(map[uint64]*Node[uint64])
	}
	sh.m[id] = n
	sh.mu.Unlock()
	return t.g.Register(n, accesses)
}

// Complete marks task id finished and returns the ids of successor tasks
// that became ready as a result. Each task must be completed exactly once.
func (t *Tracker) Complete(id uint64) (newlyReady []uint64) {
	sh := t.nodeShard(id)
	sh.mu.Lock()
	n := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	if n == nil {
		panic(fmt.Sprintf("deps: Complete of unknown or already-completed task %d", id))
	}
	return t.g.Complete(n, nil)
}

// Pending returns the number of unfinished predecessors of id, or -1 if the
// task is unknown (never registered, or already completed). It is intended
// for tests and introspection.
func (t *Tracker) Pending(id uint64) int { //lint:unusedexport the perf ledger calls it (internal/bench/scale)
	sh := t.nodeShard(id)
	sh.mu.Lock()
	n := sh.m[id]
	sh.mu.Unlock()
	if n == nil {
		return -1
	}
	return int(n.pending.Load())
}
