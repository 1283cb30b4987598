package simtime

import "math/bits"

// Heap is a 4-ary min-heap of values ordered by an explicit integer key
// pair (major, then minor): the one priority queue of the simulator,
// serving the Engine's event queue — (timestamp, insertion sequence) — and
// the cluster simulator's per-node ready queues — (task index, attempt).
// Entries are stored by value in one slice — no per-element allocation, no
// interface boxing, comparisons on plain words rather than through a method
// — and a wide node keeps a sift's comparisons inside one or two cache
// lines (LaMarca & Ladner, "The Influence of Caches on the Performance of
// Heaps", JEA 1996). Pop order is key order; it is deterministic exactly
// when no two queued entries share both keys, which callers get by making
// minor a unique tiebreak. The zero value is an empty heap.
type Heap[T any] struct {
	items []entry[T]
}

type entry[T any] struct {
	major int64
	minor uint64
	v     T
}

// before reports whether e's key is smaller than o's: one 128-bit unsigned
// compare of (major with its sign bit flipped, minor), which orders keys as
// (signed major, then unsigned minor) do, in straight-line code on the
// simulator's hottest path.
func (e *entry[T]) before(o *entry[T]) bool {
	_, borrow := bits.Sub64(e.minor, o.minor, 0)
	_, borrow = bits.Sub64(uint64(e.major)^1<<63, uint64(o.major)^1<<63, borrow)
	return borrow != 0
}

// Len returns the number of queued entries.
func (h *Heap[T]) Len() int { return len(h.items) }

// Grow makes room for n more entries without further allocation.
func (h *Heap[T]) Grow(n int) {
	if free := cap(h.items) - len(h.items); free < n {
		h.items = append(make([]entry[T], 0, len(h.items)+n), h.items...)
	}
}

// Push adds v under the key (major, minor).
func (h *Heap[T]) Push(major int64, minor uint64, v T) {
	x := entry[T]{major, minor, v}
	h.items = append(h.items, x)
	s := h.items
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
}

// Pop removes and returns the smallest entry; the heap must be non-empty.
func (h *Heap[T]) Pop() (major int64, minor uint64, v T) {
	s := h.items
	top := s[0]
	n := len(s) - 1
	x := s[n]
	s[n] = entry[T]{} // drop any reference a pointerful T holds
	s = s[:n]
	h.items = s
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if s[j].before(&s[m]) {
				m = j
			}
		}
		if !s[m].before(&x) {
			break
		}
		s[i] = s[m]
		i = m
	}
	if n > 0 {
		s[i] = x
	}
	return top.major, top.minor, top.v
}
