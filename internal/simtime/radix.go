package simtime

import "math/bits"

// radixQueue is the Engine's event queue: a radix heap (Ahuja, Mehlhorn,
// Orlin and Tarjan, "Faster algorithms for the shortest path problem",
// JACM 1990), which serves monotone keys — no event is ever scheduled
// before the last one popped — in amortised constant time per event: an
// entry only ever moves to a lower bucket, so at most 63 times.
//
// last is the timestamp of the last pop, the engine's clock. Bucket 0
// holds the events at last; bucket b ≥ 1 those whose timestamp first
// differs from last at bit b−1, and mask marks the non-empty buckets. A
// pop drains bucket 0 front first; when it is empty, the lowest non-empty
// bucket's minimum becomes last and its entries are relinked, in their
// stored order, into the buckets below it, all of which are empty.
//
// Every bucket therefore keeps insertion order: a push appends the newest
// event, and a redistribution moves one ordered bucket into empty ones. So
// equal timestamps pop first in, first out — the (timestamp, insertion
// sequence) order — with no sequence number stored.
//
// The buckets are FIFO lists linked through one slab of entries, with a
// free list, so the queue allocates only when its high-water mark grows.
// A link is a slab index plus one; 0 ends a list.
type radixQueue struct {
	last       Time
	n          int
	mask       uint64
	head, tail [64]int32
	free       int32
	slab       []qent
}

type qent struct {
	at   Time
	ev   event
	next int32
}

// Len returns the number of queued entries.
func (q *radixQueue) Len() int { return q.n }

// grow makes room for n more entries without further allocation.
func (q *radixQueue) grow(n int) {
	if cap(q.slab)-len(q.slab) < n {
		q.slab = append(make([]qent, 0, len(q.slab)+n), q.slab...)
	}
}

// push queues ev at at ≥ q.last.
func (q *radixQueue) push(at Time, ev event) {
	i := q.free
	if i != 0 {
		q.free = q.slab[i-1].next
		q.slab[i-1] = qent{at: at, ev: ev}
	} else {
		q.slab = append(q.slab, qent{at: at, ev: ev})
		i = int32(len(q.slab))
	}
	q.n++
	q.link(bits.Len64(uint64(at^q.last))&63, i)
}

// link appends entry i (a link) to bucket b.
func (q *radixQueue) link(b int, i int32) {
	if t := q.tail[b]; t != 0 {
		q.slab[t-1].next = i
	} else {
		q.head[b] = i
		q.mask |= 1 << b
	}
	q.tail[b] = i
}

// pop removes the earliest entry, first in among equal timestamps, and
// advances last to its timestamp; the queue must be non-empty.
func (q *radixQueue) pop() event {
	if q.mask&1 == 0 {
		b := bits.TrailingZeros64(q.mask) & 63
		i := q.head[b]
		m := q.slab[i-1].at
		for j := q.slab[i-1].next; j != 0; j = q.slab[j-1].next {
			m = min(m, q.slab[j-1].at)
		}
		q.last = m
		q.head[b], q.tail[b] = 0, 0
		q.mask &^= 1 << b
		for i != 0 {
			e := &q.slab[i-1]
			next := e.next
			e.next = 0
			q.link(bits.Len64(uint64(e.at^m))&63, i)
			i = next
		}
	}
	i := q.head[0]
	e := &q.slab[i-1]
	if q.head[0] = e.next; e.next == 0 {
		q.tail[0] = 0
		q.mask &^= 1
	}
	e.next = q.free
	q.free = i
	q.n--
	return e.ev
}
