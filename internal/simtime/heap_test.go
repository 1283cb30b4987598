package simtime

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"appfit/internal/xrand"
)

// TestHeapPopsInKeyOrder: under any interleaving of Push and Pop, every Pop
// returns the smallest queued major key, and among equal majors the one
// pushed first when minor is the insertion sequence — i.e. the heap agrees
// with a stable sort by major of the entries it holds (the reference).
func TestHeapPopsInKeyOrder(t *testing.T) {
	type item struct {
		major int64
		seq   uint64
	}
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		var h Heap[uint64]
		var held []item // in insertion order
		var seq uint64
		for op := 0; op < 400; op++ {
			if len(held) == 0 || r.Intn(3) > 0 {
				seq++
				it := item{int64(r.Intn(8)) - 4, seq} // few distinct keys: ties are the common case
				h.Push(it.major, it.seq, it.seq*10)
				held = append(held, it)
				continue
			}
			sort.SliceStable(held, func(i, j int) bool { return held[i].major < held[j].major })
			want := held[0]
			held = held[1:]
			sort.Slice(held, func(i, j int) bool { return held[i].seq < held[j].seq })
			if h.Min() != want.major {
				return false
			}
			major, minor, v := h.Pop()
			if major != want.major || minor != want.seq || v != want.seq*10 {
				return false
			}
		}
		return h.Len() == len(held)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapGrowKeepsEntries: Grow reserves room without disturbing what is
// queued, and pushes within the reservation do not allocate.
func TestHeapGrowKeepsEntries(t *testing.T) {
	var h Heap[int]
	h.Push(2, 0, 20)
	h.Push(1, 0, 10)
	h.Grow(128)
	if n := testing.AllocsPerRun(1, func() { // runs twice: 2 × 63 pushes fit
		for i := 0; i < 63; i++ {
			h.Push(int64(3+i), 0, i)
		}
	}); n != 0 {
		t.Fatalf("pushes inside the reservation allocated %v times", n)
	}
	if _, _, v := h.Pop(); v != 10 {
		t.Fatalf("first pop %d, want 10", v)
	}
	if _, _, v := h.Pop(); v != 20 || h.Len() != 126 {
		t.Fatalf("second pop %d (len %d), want 20 and 126 left", v, h.Len())
	}
}

// TestHeapKeyMatchesLexicographic: before orders keys exactly as the
// two-branch reference — signed major first, then unsigned minor — on
// random keys, on keys sharing a major, and on every pairing of the edge
// values where a sign or a carry could go wrong.
func TestHeapKeyMatchesLexicographic(t *testing.T) {
	ref := func(am int64, an uint64, bm int64, bn uint64) bool {
		if am != bm {
			return am < bm
		}
		return an < bn
	}
	agree := func(am int64, an uint64, bm int64, bn uint64) bool {
		a, b := entry[struct{}]{major: am, minor: an}, entry[struct{}]{major: bm, minor: bn}
		return a.before(&b) == ref(am, an, bm, bn) && b.before(&a) == ref(bm, bn, am, an)
	}
	cfg := &quick.Config{MaxCount: 100000, Rand: rand.New(rand.NewSource(36))}
	if err := quick.Check(agree, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(m int64, an, bn uint64) bool { return agree(m, an, m, bn) }, cfg); err != nil {
		t.Fatal(err)
	}
	majors := []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	minors := []uint64{0, 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	for _, am := range majors {
		for _, an := range minors {
			for _, bm := range majors {
				for _, bn := range minors {
					if !agree(am, an, bm, bn) {
						t.Fatalf("(%d, %#x) vs (%d, %#x): before disagrees with the reference", am, an, bm, bn)
					}
				}
			}
		}
	}
}
