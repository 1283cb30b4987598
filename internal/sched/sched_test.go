package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDequeLIFOOwner(t *testing.T) {
	d := &deque[uint64]{}
	for i := uint64(1); i <= 3; i++ {
		d.PushBottom(i)
	}
	for want := uint64(3); want >= 1; want-- {
		v, ok := d.PopBottom()
		if !ok || v != want {
			t.Fatalf("PopBottom = %d,%v want %d", v, ok, want)
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("empty deque returned item")
	}
}

func TestDequeFIFOThief(t *testing.T) {
	d := &deque[uint64]{}
	for i := uint64(1); i <= 3; i++ {
		d.PushBottom(i)
	}
	for want := uint64(1); want <= 3; want++ {
		v, ok := d.Steal()
		if !ok || v != want {
			t.Fatalf("Steal = %d,%v want %d", v, ok, want)
		}
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("empty deque stolen from")
	}
	if len(d.items) != 0 {
		t.Fatal("len != 0")
	}
}

func TestDequeConcurrentNoLossNoDup(t *testing.T) {
	d := &deque[uint64]{}
	const n = 10000
	var got sync.Map
	var wg sync.WaitGroup
	// One producer, three consumers (owner + two thieves).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= n; i++ {
			d.PushBottom(i)
		}
	}()
	var taken atomic.Uint64
	for c := 0; c < 3; c++ {
		wg.Add(1)
		steal := c != 0
		go func() {
			defer wg.Done()
			for taken.Load() < n {
				var v uint64
				var ok bool
				if steal {
					v, ok = d.Steal()
				} else {
					v, ok = d.PopBottom()
				}
				if ok {
					if _, dup := got.LoadOrStore(v, true); dup {
						t.Errorf("duplicate item %d", v)
						return
					}
					taken.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if taken.Load() != n {
		t.Fatalf("taken %d of %d", taken.Load(), n)
	}
}

func TestPoolSubmitGet(t *testing.T) {
	p := NewPool(2)
	p.Submit(-1, 42)
	v, ok := p.Get(0)
	if !ok || v != 42 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
}

func TestPoolWorkerLocalAffinity(t *testing.T) {
	p := NewPool(2)
	p.Submit(1, 7)
	// Worker 1 should find its own item directly.
	v, ok := p.Get(1)
	if !ok || v != 7 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
}

func TestPoolStealAcrossWorkers(t *testing.T) {
	p := NewPool(2)
	p.Submit(0, 9) // lands on worker 0's deque
	v, ok := p.Get(1)
	if !ok || v != 9 {
		t.Fatalf("worker 1 failed to steal: %d,%v", v, ok)
	}
}

func TestPoolCloseUnblocks(t *testing.T) {
	p := NewPool(1)
	done := make(chan bool)
	go func() {
		_, ok := p.Get(0)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	p.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Get returned work after close of empty pool")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get did not unblock on Close")
	}
}

func TestPoolDrainsBeforeCloseReturns(t *testing.T) {
	// Work submitted before Close must still be delivered.
	p := NewPool(1)
	for i := uint64(1); i <= 5; i++ {
		p.Submit(-1, i)
	}
	p.Close()
	var got []uint64
	for {
		v, ok := p.Get(0)
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 5 {
		t.Fatalf("drained %d items, want 5", len(got))
	}
}

func TestPoolManyProducersConsumers(t *testing.T) {
	p := NewPool(4)
	const n = 20000
	var consumed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				_, ok := p.Get(worker)
				if !ok {
					return
				}
				consumed.Add(1)
			}
		}(w)
	}
	for i := uint64(0); i < n; i++ {
		p.Submit(int(i%5)-1, i) // mix of global (-1) and worker-targeted
	}
	for p.Pending() > 0 {
		time.Sleep(time.Millisecond)
	}
	p.Close()
	wg.Wait()
	if consumed.Load() != n {
		t.Fatalf("consumed %d of %d", consumed.Load(), n)
	}
}

func TestPoolMinWorkers(t *testing.T) {
	p := NewPool(0)
	if len(p.deques) != 1 {
		t.Fatalf("workers = %d, want clamped to 1", len(p.deques))
	}
}

func TestPoolOutOfRangeWorkerGoesGlobal(t *testing.T) {
	p := NewPool(1)
	p.Submit(99, 5)
	v, ok := p.Get(0)
	if !ok || v != 5 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
}

func TestPoolSubmitBatchOrderAndAffinity(t *testing.T) {
	p := NewPool(2)
	p.SubmitBatch(1, []uint64{10, 11, 12})
	// Owner pops LIFO: last released successor first (locality).
	for want := uint64(12); want >= 10; want-- {
		v, ok := p.Get(1)
		if !ok || v != want {
			t.Fatalf("Get = %d,%v want %d", v, ok, want)
		}
	}
	p.SubmitBatch(-1, []uint64{20, 21})
	// Global queue drains FIFO.
	for want := uint64(20); want <= 21; want++ {
		v, ok := p.Get(0)
		if !ok || v != want {
			t.Fatalf("global Get = %d,%v want %d", v, ok, want)
		}
	}
	if p.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", p.Pending())
	}
}

func TestPoolSubmitBatchEmptyIsNoop(t *testing.T) {
	p := NewPool(1)
	p.SubmitBatch(0, nil)
	if p.Pending() != 0 {
		t.Fatal("empty batch must not change pending")
	}
}

func TestPoolSubmitBatchWakesParkedWorkers(t *testing.T) {
	// Four workers park on an empty pool; one batch of four must wake all of
	// them (a single Signal would strand three with work available).
	p := NewPool(4)
	const n = 4
	var consumed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			if _, ok := p.Get(worker); ok {
				consumed.Add(1)
			}
			// Block until every worker got exactly one item, so a worker
			// cannot consume a second item on behalf of a stranded peer.
			for consumed.Load() < n {
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // let all workers park
	p.SubmitBatch(-1, []uint64{1, 2, 3, 4})
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("batch woke only %d of %d parked workers", consumed.Load(), n)
	}
	p.Close()
}

func TestPoolSubmitBatchConcurrentNoLossNoDup(t *testing.T) {
	p := NewPool(4)
	const batches = 2000
	const batchLen = 5
	var got sync.Map
	var taken atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				v, ok := p.Get(worker)
				if !ok {
					return
				}
				if _, dup := got.LoadOrStore(v, true); dup {
					t.Errorf("duplicate item %d", v)
					return
				}
				taken.Add(1)
			}
		}(w)
	}
	for i := 0; i < batches; i++ {
		vs := make([]uint64, batchLen)
		for j := range vs {
			vs[j] = uint64(i*batchLen + j + 1)
		}
		p.SubmitBatch(i%5-1, vs) // mix of global (-1) and worker-targeted
	}
	for p.Pending() > 0 {
		time.Sleep(time.Millisecond)
	}
	p.Close()
	wg.Wait()
	if taken.Load() != batches*batchLen {
		t.Fatalf("consumed %d of %d", taken.Load(), batches*batchLen)
	}
}

func BenchmarkPoolSubmitGet(b *testing.B) {
	p := NewPool(1)
	for i := 0; i < b.N; i++ {
		p.Submit(0, uint64(i))
		p.Get(0)
	}
}

func BenchmarkDequePushPop(b *testing.B) {
	d := &deque[uint64]{}
	for i := 0; i < b.N; i++ {
		d.PushBottom(uint64(i))
		d.PopBottom()
	}
}
