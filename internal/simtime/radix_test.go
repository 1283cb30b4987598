package simtime

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"appfit/internal/xrand"
)

// refItem is a queued event in the reference order: timestamp, then
// insertion sequence — what the queue promised before it was a radix heap.
type refItem struct {
	at  Time
	seq int32
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestRadixQueueMatchesReferenceHeap: under random monotone pushes
// interleaved with pops, the radix queue pops exactly what a binary heap
// keyed by (timestamp, insertion sequence) pops, and its clock reads the
// popped timestamp. The pushes are same-time bursts at the clock (joining
// bucket 0 while it drains), bursts at one near-future time, and jumps of
// every bit width up to 2^62.
func TestRadixQueueMatchesReferenceHeap(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		var q radixQueue
		var ref refHeap
		var seq int32
		push := func(at Time) {
			seq++
			q.push(at, event{a: seq, b: -seq, kind: Kind(seq)})
			heap.Push(&ref, refItem{at, seq})
		}
		pop := func() bool {
			want := heap.Pop(&ref).(refItem)
			ev := q.pop()
			return ev.a == want.seq && ev.b == -want.seq && ev.kind == Kind(want.seq) &&
				q.last == want.at && q.Len() == ref.Len()
		}
		for op := 0; op < 2000; op++ {
			switch x := r.Intn(8); {
			case x < 3 && ref.Len() > 0:
				if !pop() {
					return false
				}
			case x < 4:
				for n := r.Intn(8); n >= 0; n-- {
					push(q.last)
				}
			case x < 5:
				at := q.last + Time(r.Intn(1024))
				for n := r.Intn(8); n >= 0; n-- {
					push(at)
				}
			default:
				d := Time(r.Uint64() >> (64 - r.Intn(63))) // width 0..62
				push(q.last + min(d, math.MaxInt64-q.last))
			}
		}
		for ref.Len() > 0 {
			if !pop() {
				return false
			}
		}
		return q.Len() == 0 && q.mask == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineTypedStepAllocatesNothing: once Grow has reserved the queue's
// high-water mark, a typed Post and a Step allocate nothing — the slab's
// free list recycles the fired entry.
func TestEngineTypedStepAllocatesNothing(t *testing.T) {
	e := New()
	e.Handle(func(Kind, int32, int32) {})
	e.Grow(64)
	for i := 0; i < 63; i++ {
		e.Post(Time(i%7), 1, int32(i), 0)
	}
	k := int32(0)
	if n := testing.AllocsPerRun(1000, func() {
		k++
		e.Post(e.Now()+Time(k%97), 1, k, 0)
		e.Step()
	}); n != 0 {
		t.Fatalf("typed Post+Step allocates %v times", n)
	}
}
