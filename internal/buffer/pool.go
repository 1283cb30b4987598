// Pool recycles exact-length buffers for the two places that burn through
// short-lived copies: the replication engine (internal/rt, internal/ckpt),
// which copies a task's arguments into a checkpoint, two private attempt sets
// and one more set per re-execution and drops them all when the task
// completes; and the dist collectives, whose per-step staging buffers die
// when the World drains. Both want a handful of exact lengths over and over
// and fully overwrite a buffer before its first read, so a Pool bins buffers
// by (element type, element count) and hands them back dirty — no zeroing
// pass, and after warm-up no allocation.
//
// The engine leases through Lease/Return: Lease takes the source buffer and
// returns its copy, so no caller ever holds a dirty buffer it could read.
// The collectives, which fill their staging by receive, use the typed
// GetF64/PutF64 accessors over the same bins.
package buffer

import (
	"math"
	"sync"
)

// poolBinCap bounds each exact-length bin. A collective needs at most a few
// staging buffers per member per step and a runtime at most a few sets per
// worker, and bins beyond the cap simply fall back to the allocator, so a
// one-off giant World cannot pin its staging footprint forever.
const poolBinCap = 1024

// bin identifies the buffers that may stand in for one another — same
// concrete type, same element count — as count<<binKindBits | kind: one word,
// so the bins are a map the runtime hashes on its integer fast path.
type bin int

const (
	kindForeign bin = iota
	kindF64
	kindC128
	kindU8
	binKindBits = 3
)

func binFor(kind bin, n int) bin { return bin(n)<<binKindBits | kind }

// binOf returns b's bin. Buffer types from outside this package share one
// bin; CopyFrom's type and length check keeps a Lease from handing one out
// as another's copy.
func binOf(b Buffer) bin {
	switch b := b.(type) {
	case F64:
		return binFor(kindF64, len(b))
	case C128:
		return binFor(kindC128, len(b))
	case U8:
		return binFor(kindU8, len(b))
	}
	return kindForeign
}

// PoolStats counts a pool's traffic. Leases == Returns once every buffer
// taken out (Lease, GetF64) has come back (Return, PutF64).
type PoolStats struct {
	// Leases counts buffers handed out; Hits those served from a bin rather
	// than the allocator.
	Leases, Hits uint64
	// Returns counts buffers handed back, kept or dropped by a full bin.
	Returns uint64
}

// Pool is a mutex-guarded free list of buffers binned by exact type and
// length. Bins hold buffers already boxed as Buffer, so a Lease served from
// a bin allocates nothing. The zero value is not ready; use NewPool. All
// methods are safe for concurrent use.
type Pool struct {
	mu sync.Mutex
	// free holds the bins. // guarded by mu
	free  map[bin][]Buffer
	stats PoolStats // guarded by mu
	// poison makes put scribble over every buffer it takes back. // guarded by mu
	poison bool
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{free: make(map[bin][]Buffer)}
}

// take pops a buffer from bin k, or returns nil.
func (p *Pool) take(k bin) Buffer {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Leases++
	free := p.free[k]
	if len(free) == 0 {
		return nil
	}
	b := free[len(free)-1]
	free[len(free)-1] = nil
	p.free[k] = free[:len(free)-1]
	p.stats.Hits++
	return b
}

// put files non-nil buffers into their bins; a full bin drops the buffer for
// the allocator to reclaim.
func (p *Pool) put(bufs []Buffer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range bufs {
		if b == nil {
			continue
		}
		p.stats.Returns++
		if p.poison {
			scribble(b)
		}
		k := binOf(b)
		if free := p.free[k]; len(free) < poolBinCap {
			p.free[k] = append(free, b)
		}
	}
}

// Lease returns a private copy of src: same concrete type, same length, same
// contents, backed by recycled storage when a buffer of that shape has been
// returned. Taking the source is what makes dirty recycling safe — a lease
// is fully overwritten before anyone can read it. Lease(nil) is nil.
func (p *Pool) Lease(src Buffer) Buffer {
	if src == nil {
		return nil
	}
	if b := p.take(binOf(src)); b != nil && b.CopyFrom(src) == nil {
		return b
	}
	return src.Clone()
}

// Return hands leases back. Nil entries are skipped. The caller must not
// retain references: the next Lease of the same shape may hand the buffer to
// an unrelated owner.
func (p *Pool) Return(bufs ...Buffer) { p.put(bufs) }

// GetF64 returns an n-element F64 buffer with UNDEFINED contents: a recycled
// buffer keeps whatever its previous life wrote. Callers must fully
// overwrite it before the first read — the contract every staging buffer in
// the collectives satisfies (each is filled by a receive copy or an init
// copy before any fold reads it).
func (p *Pool) GetF64(n int) F64 {
	if b := p.take(binFor(kindF64, n)); b != nil {
		return b.(F64)
	}
	return make(F64, n)
}

// PutF64 returns buffers to their exact-length bins. Nil buffers are
// skipped; zero-length buffers are accepted (GetF64(0) recycles them like
// any other length). A full bin drops the buffer for the allocator to
// reclaim. The caller must not retain references: the next GetF64 of the
// same length may hand the buffer to an unrelated owner.
func (p *Pool) PutF64(bufs ...F64) {
	var few [8]Buffer // a single put boxes on the stack; a World's bulk return grows once
	boxed := few[:0]
	for _, b := range bufs {
		if b != nil {
			boxed = append(boxed, b)
		}
	}
	p.put(boxed)
}

// Stats returns the pool's cumulative traffic.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Poison makes the pool overwrite every buffer it takes back with a 0xA5
// byte pattern, so a lease read before its overwrite or used after its
// return computes a visibly wrong answer instead of a plausible stale one.
// It is the switch the lease-discipline tests run the engine under.
func (p *Pool) Poison() {
	p.mu.Lock()
	p.poison = true
	p.mu.Unlock()
}

// scribble fills b with the poison pattern.
func scribble(b Buffer) {
	f := math.Float64frombits(0xA5A5A5A5A5A5A5A5)
	switch b := b.(type) {
	case F64:
		for i := range b {
			b[i] = f
		}
	case C128:
		for i := range b {
			b[i] = complex(f, f)
		}
	case U8:
		for i := range b {
			b[i] = 0xA5
		}
	}
}
