// Package simtime is a discrete-event simulation engine with a virtual
// clock. It is the measurement substrate for the paper's parallel-time
// results (Figures 4-6): those are statements about makespans on 16-1024
// cores, which cannot be observed as wall-clock time on this host; the
// cluster simulator (internal/cluster) schedules task DAGs over simulated
// cores and advances this clock instead.
//
// Events fire in timestamp order; ties break by insertion order, making
// every simulation fully deterministic. An event is a small pointer-free
// value on one radix queue (time only moves forward), in one of two forms
// sharing that queue and its tie order: a typed event — a Kind and two
// integers the engine's owner dispatches in a switch (Handle, Post,
// PostAfter), which allocates nothing — or a closure (At, After), parked
// in a side table while the queued record carries its slot.
package simtime

// Time is virtual time in nanoseconds.
type Time int64

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// FromSeconds converts seconds to Time.
func FromSeconds(s float64) Time { return Time(s * 1e9) }

// Kind tells an Engine's handler what a typed event means. Owners number
// their kinds from 1; kind 0 is the closure layer's.
type Kind uint8

const kindFunc Kind = 0

// event is the queued record's payload. Record and timestamp hold no
// pointer, so queueing moves plain words — no write barriers — and the
// queue is invisible to the GC.
type event struct {
	a, b int32 // the owner's payload; a is the closure's slot for kindFunc
	kind Kind
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; construct with New.
type Engine struct {
	queue   radixQueue // its last pop's timestamp is the clock
	handler func(k Kind, a, b int32)
	// Closures scheduled through At/After wait here, indexed by the slot
	// their event carries; a fired slot is cleared (releasing the closure)
	// and reused.
	fns       []func()
	freeSlots []int32
}

// New returns an Engine at time 0.
func New() *Engine { return &Engine{} }

// Reset empties the queue and returns the clock to 0, keeping the handler
// and the queue's memory: one Engine runs simulation after simulation
// without allocating again.
func (e *Engine) Reset() {
	e.queue = radixQueue{slab: e.queue.slab[:0]}
	clear(e.fns)
	e.fns, e.freeSlots = e.fns[:0], e.freeSlots[:0]
}

// Handle installs the function that receives typed events as they fire.
func (e *Engine) Handle(h func(k Kind, a, b int32)) { e.handler = h }

// Grow makes room for n more pending events, so a run that knows its bound
// allocates the queue once.
func (e *Engine) Grow(n int) { e.queue.grow(n) }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.queue.last }

// Post schedules a typed event at absolute time at: when it fires, the
// handler receives (k, a, b). Scheduling in the past panics: that is always
// a simulator bug, as is posting kind 0 or posting with no handler.
func (e *Engine) Post(at Time, k Kind, a, b int32) {
	if k == kindFunc || e.handler == nil {
		panic("simtime: typed event with kind 0 or no handler installed")
	}
	e.push(at, k, a, b)
}

// PostAfter schedules a typed event delay after the current time.
func (e *Engine) PostAfter(delay Time, k Kind, a, b int32) {
	if delay < 0 {
		panic("simtime: negative delay")
	}
	e.Post(e.Now()+delay, k, a, b)
}

func (e *Engine) push(at Time, k Kind, a, b int32) {
	if at < e.Now() {
		panic("simtime: scheduling event in the past")
	}
	e.queue.push(at, event{a: a, b: b, kind: k})
}

// At schedules fn to run at absolute time at. Scheduling in the past panics:
// that is always a simulator bug.
func (e *Engine) At(at Time, fn func()) {
	var slot int32
	if n := len(e.freeSlots); n > 0 {
		slot = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		e.fns[slot] = fn
	} else {
		slot = int32(len(e.fns))
		e.fns = append(e.fns, fn)
	}
	e.push(at, kindFunc, slot, 0)
}

// After schedules fn to run delay after the current time.
func (e *Engine) After(delay Time, fn func()) {
	if delay < 0 {
		panic("simtime: negative delay")
	}
	e.At(e.Now()+delay, fn)
}

// Step fires the earliest pending event. It returns false if none remain.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := e.queue.pop()
	if ev.kind != kindFunc {
		e.handler(ev.kind, ev.a, ev.b)
		return true
	}
	fn := e.fns[ev.a]
	e.fns[ev.a] = nil
	e.freeSlots = append(e.freeSlots, ev.a)
	fn()
	return true
}

// Run fires events until the queue is empty and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.Now()
}
