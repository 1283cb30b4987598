package buffer

import (
	"sync"
	"testing"

	"appfit/internal/xrand"
)

func TestPoolRecyclesExactLength(t *testing.T) {
	p := NewPool()
	a := p.GetF64(16)
	if len(a) != 16 {
		t.Fatalf("GetF64(16) length = %d", len(a))
	}
	a[0] = 42
	p.PutF64(a)

	b := p.GetF64(16)
	if st := p.Stats(); st.Leases != 2 || st.Hits != 1 || st.Returns != 1 {
		t.Fatalf("stats after recycle = %+v, want 2 leases, 1 hit, 1 return", st)
	}
	if &b[0] != &a[0] {
		t.Fatal("second GetF64(16) did not reuse the returned buffer")
	}
	// Contents are undefined on reuse — the pool must NOT zero.
	if b[0] != 42 {
		t.Fatalf("recycled buffer was scrubbed: b[0] = %v", b[0])
	}

	// A different length misses the bin.
	c := p.GetF64(17)
	if len(c) != 17 {
		t.Fatalf("GetF64(17) length = %d", len(c))
	}
	if st := p.Stats(); st.Leases != 3 || st.Hits != 1 {
		t.Fatalf("stats after miss = %+v, want 3 leases, 1 hit", st)
	}
}

func TestPoolIgnoresNilAndCapsBins(t *testing.T) {
	p := NewPool()
	p.PutF64(nil, nil)
	if got := p.GetF64(0); len(got) != 0 {
		t.Fatalf("GetF64(0) length = %d", len(got))
	}
	if st := p.Stats(); st.Hits != 0 || st.Returns != 0 {
		t.Fatalf("nil puts must not populate a bin or count as returns: %+v", st)
	}

	for i := 0; i < poolBinCap+10; i++ {
		p.PutF64(make(F64, 4))
	}
	if n := len(p.free[binFor(kindF64, 4)]); n != poolBinCap {
		t.Fatalf("bin size = %d, want capped at %d", n, poolBinCap)
	}
	if st := p.Stats(); st.Returns != poolBinCap+10 {
		t.Fatalf("a dropped buffer still came back: returns = %d, want %d", st.Returns, poolBinCap+10)
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := p.GetF64(8 + g%3)
				b[0] = float64(i)
				p.PutF64(b)
			}
		}(g)
	}
	wg.Wait()
	if st := p.Stats(); st.Leases != 8*200 || st.Returns != 8*200 {
		t.Fatalf("stats = %+v, want %d leases and returns", st, 8*200)
	}
}

// TestLeaseAllKinds round-trips each concrete buffer type through the lease
// path: a lease is an exact copy on fresh storage, a returned lease backs
// the next one of its shape (dirty, then fully overwritten), and buffers of
// another type or length never cross bins.
func TestLeaseAllKinds(t *testing.T) {
	r := xrand.New(7)
	for _, src := range allKinds(24) {
		p := NewPool()
		fill(src, r)
		a := p.Lease(src)
		if !a.EqualTo(src) {
			t.Fatalf("%T: lease differs from its source", src)
		}
		a.FlipBit(3)
		if a.EqualTo(src) {
			t.Fatalf("%T: lease shares storage with its source", src)
		}
		p.Return(a)

		// Same shape, new contents: the recycled buffer must come back as an
		// exact copy of the new source, nothing of its dirty past showing.
		fill(src, r)
		b := p.Lease(src)
		if !b.EqualTo(src) {
			t.Fatalf("%T: recycled lease differs from its source", src)
		}
		if st := p.Stats(); st.Leases != 2 || st.Hits != 1 || st.Returns != 1 {
			t.Fatalf("%T: stats %+v, want 2 leases, 1 hit, 1 return", src, st)
		}
		p.Return(b)

		// Every other type and length misses b's bin.
		for _, other := range append(allKinds(24), allKinds(25)...) {
			if binOf(other) == binOf(src) {
				continue
			}
			if c := p.Lease(other); !c.EqualTo(other) {
				t.Fatalf("%T lease after %T return differs from its source", other, src)
			}
		}
		if st := p.Stats(); st.Hits != 1 {
			t.Fatalf("%T: a lease crossed bins: %+v", src, st)
		}
	}
}

// TestLeaseEdges holds the lease path to what PutF64 documents: nil is
// skipped, zero-length buffers recycle like any other, a full bin drops.
func TestLeaseEdges(t *testing.T) {
	p := NewPool()
	if p.Lease(nil) != nil {
		t.Fatal("Lease(nil) must be nil")
	}
	p.Return(nil, nil)
	if st := p.Stats(); st != (PoolStats{}) {
		t.Fatalf("nil traffic was counted: %+v", st)
	}

	for _, empty := range allKinds(0) {
		z := p.Lease(empty)
		if z.BitLen() != 0 || binOf(z) != binOf(empty) {
			t.Fatalf("%T: zero-length lease came back as %T of %d bits", empty, z, z.BitLen())
		}
		p.Return(z)
		p.Lease(empty)
	}
	if st := p.Stats(); st.Hits != uint64(len(allKinds(0))) {
		t.Fatalf("zero-length buffers must recycle: %+v", st)
	}

	src := NewU8(3)
	for i := 0; i < poolBinCap+5; i++ {
		p.Return(NewU8(3))
	}
	if n := len(p.free[binOf(src)]); n != poolBinCap {
		t.Fatalf("bin size = %d, want capped at %d", n, poolBinCap)
	}

	// The typed accessors and the lease path serve one set of bins.
	f := p.GetF64(9)
	p.PutF64(f)
	if l := p.Lease(NewF64(9)).(F64); &l[0] != &f[0] {
		t.Fatal("a PutF64 buffer did not serve the next Lease of its shape")
	}
}

// TestPoisonScribblesReturns checks the test switch itself: a poisoned pool
// overwrites what it takes back, for every type, and a lease still reads as
// its source.
func TestPoisonScribblesReturns(t *testing.T) {
	for _, src := range allKinds(5) {
		p := NewPool()
		p.Poison()
		a := p.Lease(src)
		p.Return(a)
		if a.EqualTo(src) {
			t.Fatalf("%T: returned buffer was not scribbled", src)
		}
		if b := p.Lease(src); !b.EqualTo(src) {
			t.Fatalf("%T: poison leaked into a lease", src)
		}
	}
}
