package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"appfit/internal/simtime"
	"appfit/internal/xrand"
)

// TestReadyHeapPopsInKeyOrder: under any interleaving of push and pop,
// every pop returns the queued (task, attempt) pair that sorts first —
// task, then attempt — with its cost, i.e. the heap agrees with a sort of
// the entries it holds (the reference). Few distinct tasks make equal
// tasks with different attempts the common case, and task indices reach
// the int32 bound a Job is validated against.
func TestReadyHeapPopsInKeyOrder(t *testing.T) {
	type item struct{ task, attempt int }
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		var h readyHeap
		var held []item
		for op := 0; op < 400; op++ {
			if len(held) == 0 || r.Intn(3) > 0 {
				it := item{r.Intn(8), r.Intn(8)}
				if r.Intn(8) == 0 {
					it.task = math.MaxInt32 - r.Intn(2)
				}
				h.push(it.task, it.attempt, simtime.Time(it.task*10+it.attempt))
				held = append(held, it)
				continue
			}
			sort.Slice(held, func(i, j int) bool {
				return held[i].task < held[j].task || held[i].task == held[j].task && held[i].attempt < held[j].attempt
			})
			want := held[0]
			held = held[1:]
			task, attempt, cost := h.pop()
			if task != want.task || attempt != want.attempt || cost != simtime.Time(want.task*10+want.attempt) {
				return false
			}
		}
		return len(h) == len(held)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

// TestReadyHeapGrowKeepsEntries: grow reserves room without disturbing what
// is queued, and pushes within the reservation do not allocate.
func TestReadyHeapGrowKeepsEntries(t *testing.T) {
	var h readyHeap
	h.push(2, 0, 20)
	h.push(1, 0, 10)
	h.grow(128)
	if n := testing.AllocsPerRun(1, func() { // runs twice: 2 × 63 pushes fit
		for i := 0; i < 63; i++ {
			h.push(3+i, 0, simtime.Time(i))
		}
	}); n != 0 {
		t.Fatalf("pushes inside the reservation allocated %v times", n)
	}
	if task, _, cost := h.pop(); task != 1 || cost != 10 {
		t.Fatalf("first pop task %d cost %d, want 1 and 10", task, cost)
	}
	if task, _, cost := h.pop(); task != 2 || cost != 20 || len(h) != 126 {
		t.Fatalf("second pop task %d cost %d (len %d), want 2, 20 and 126 left", task, cost, len(h))
	}
}
