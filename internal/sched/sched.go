// Package sched provides the ready-task scheduling machinery of the runtime:
// per-worker work-stealing deques plus a global overflow queue, with parked
// workers woken when work arrives. This mirrors the Nanos thread-pool design
// the paper builds on ("idle threads from a thread pool poll the internal
// structures which store the scheduled task descriptors and execute them
// asynchronously", §III).
//
// Items are the runtime's task records themselves (Queue[T]); Pool and Deque
// are the same machinery over uint64 handles. A taken slot is cleared, so a
// queue's backing array never keeps a finished task reachable. The deque is
// owner-bottom/thief-top: the owning worker pushes and pops at the bottom
// (LIFO, good locality for freshly released successors), thieves steal from
// the top (FIFO, takes the oldest — usually largest — subtree).
package sched

import "sync"

// deque is a double-ended work queue. PushBottom/PopBottom are intended for
// the owner, Steal for other workers; all methods are safe for concurrent
// use (a single mutex keeps the implementation obviously correct — the
// runtime's contention profile is dominated by task bodies, not the deque).
type deque[T any] struct {
	mu    sync.Mutex
	items []T // guarded by mu
}

// Deque is a deque of uint64 handles.
type Deque = deque[uint64]

// PushBottom adds an item at the owner end.
func (d *deque[T]) PushBottom(v T) {
	d.mu.Lock()
	d.items = append(d.items, v)
	d.mu.Unlock()
}

// PushBottomBatch adds items at the owner end in order, under one lock
// acquisition; the last item of vs is the first PopBottom returns.
func (d *deque[T]) PushBottomBatch(vs []T) {
	d.mu.Lock()
	d.items = append(d.items, vs...)
	d.mu.Unlock()
}

// PopBottom removes and returns the most recently pushed item.
func (d *deque[T]) PopBottom() (v T, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return v, false
	}
	v = d.items[n-1]
	clear(d.items[n-1:]) // a taken slot keeps nothing reachable
	d.items = d.items[:n-1]
	return v, true
}

// Steal removes and returns the oldest item.
func (d *deque[T]) Steal() (v T, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return v, false
	}
	v, d.items = popFront(d.items)
	return v, true
}

// popFront removes q's first item and clears its slot. A queue it empties
// starts over at the front of its backing array rather than at the end, so
// a queue drained as fast as it fills never reallocates.
func popFront[T any](q []T) (T, []T) {
	v := q[0]
	clear(q[:1])
	if len(q) == 1 {
		return v, q[:0]
	}
	return v, q[1:]
}

// Len returns the current number of items.
func (d *deque[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}

// Queue coordinates W workers: each has a deque; a global FIFO holds work
// submitted from outside any worker; idle workers spin over victims then
// park on a condition variable. Close releases all parked workers.
type Queue[T any] struct {
	mu      sync.Mutex
	cond    *sync.Cond
	global  []T
	deques  []*deque[T]
	parked  int
	closed  bool
	pending int // items enqueued but not yet taken
}

// Pool is a Queue of uint64 handles.
type Pool = Queue[uint64]

// NewQueue returns a Queue with workers deques.
func NewQueue[T any](workers int) *Queue[T] {
	if workers < 1 {
		workers = 1
	}
	p := &Queue[T]{deques: make([]*deque[T], workers)}
	for i := range p.deques {
		p.deques[i] = &deque[T]{}
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// NewPool returns a Pool with workers deques.
func NewPool(workers int) *Pool { return NewQueue[uint64](workers) }

// Workers returns the number of worker slots.
func (p *Queue[T]) Workers() int { return len(p.deques) }

// Submit enqueues v on the global queue and wakes a parked worker.
// worker < 0 targets the global queue; otherwise v goes to that worker's
// deque (used when a worker releases successors of the task it just ran).
func (p *Queue[T]) Submit(worker int, v T) {
	p.mu.Lock()
	if worker >= 0 && worker < len(p.deques) {
		p.deques[worker].PushBottom(v)
	} else {
		p.global = append(p.global, v)
	}
	p.pending++
	p.cond.Signal()
	p.mu.Unlock()
}

// SubmitBatch enqueues all of vs — a completion's released successors,
// typically — with one pool-lock acquisition and one deque-lock acquisition,
// where per-item Submit would pay both len(vs) times. It wakes at most
// min(len(vs), parked) workers: waking more could not find work, waking
// fewer could strand a ready task behind a parked worker. Targeting rules
// match Submit; order within vs is preserved (the deque owner pops the last
// item first, thieves and the global queue drain from the front).
func (p *Queue[T]) SubmitBatch(worker int, vs []T) {
	if len(vs) == 0 {
		return
	}
	p.mu.Lock()
	if worker >= 0 && worker < len(p.deques) {
		p.deques[worker].PushBottomBatch(vs)
	} else {
		p.global = append(p.global, vs...)
	}
	p.pending += len(vs)
	wake := len(vs)
	if wake > p.parked {
		wake = p.parked
	}
	for ; wake > 0; wake-- {
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// tryGet attempts to dequeue without blocking: own deque, then global,
// then steal from victims in order.
func (p *Queue[T]) tryGet(worker int) (v T, ok bool) {
	if worker >= 0 && worker < len(p.deques) {
		if v, ok := p.deques[worker].PopBottom(); ok {
			p.noteTaken()
			return v, true
		}
	}
	p.mu.Lock()
	if len(p.global) > 0 {
		v, p.global = popFront(p.global)
		p.pending--
		p.mu.Unlock()
		return v, true
	}
	p.mu.Unlock()
	for i := range p.deques {
		victim := (worker + 1 + i) % len(p.deques)
		if victim == worker {
			continue
		}
		if v, ok := p.deques[victim].Steal(); ok {
			p.noteTaken()
			return v, true
		}
	}
	return v, false
}

func (p *Queue[T]) noteTaken() {
	p.mu.Lock()
	p.pending--
	p.mu.Unlock()
}

// Get blocks until an item is available for worker, or the pool is closed.
// The second result is false iff the pool was closed and no work remains.
func (p *Queue[T]) Get(worker int) (T, bool) {
	for {
		v, ok := p.tryGet(worker)
		if ok {
			return v, true
		}
		p.mu.Lock()
		// Re-check under the lock: a Submit may have raced.
		if p.pending > 0 {
			p.mu.Unlock()
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return v, false
		}
		p.parked++
		p.cond.Wait()
		p.parked--
		p.mu.Unlock()
	}
}

// Close wakes all workers; Gets return false once the queues drain.
func (p *Queue[T]) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Pending returns the number of enqueued-but-not-taken items.
func (p *Queue[T]) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}
