package deps

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"appfit/internal/xrand"
)

// refTracker is the frozen pre-sharding tracker: one global mutex, map-based
// nodes, the same RAW/WAR/WAW derivation. The property tests below hold the
// sharded Tracker to exactly its schedules.
type refTracker struct {
	mu      sync.Mutex
	regions regions
	nodes   map[uint64]*refNode
	edges   int
}

type refNode struct {
	pending    int
	successors []uint64
	done       bool
}

func newRefTracker() *refTracker {
	return &refTracker{nodes: make(map[uint64]*refNode)}
}

func (t *refTracker) Register(id uint64, accesses []Access) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := &refNode{}
	t.nodes[id] = n
	for _, p := range t.regions.derivePreds(id, accesses) {
		pn := t.nodes[p]
		if pn == nil || pn.done {
			continue
		}
		pn.successors = append(pn.successors, id)
		n.pending++
		t.edges++
	}
	return n.pending == 0
}

func (t *refTracker) Complete(id uint64) (newlyReady []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nodes[id]
	n.done = true
	for _, s := range n.successors {
		sn := t.nodes[s]
		sn.pending--
		if sn.pending == 0 {
			newlyReady = append(newlyReady, s)
		}
	}
	n.successors = nil
	return newlyReady
}

func (t *refTracker) Pending(id uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nodes[id]
	if n == nil {
		return -1
	}
	return n.pending
}

// randomAccesses builds n random task access lists over nkeys regions.
func randomAccesses(r *xrand.Rand, n, nkeys int) [][]Access {
	accs := make([][]Access, n)
	for i := range accs {
		na := 1 + r.Intn(3)
		for j := 0; j < na; j++ {
			accs[i] = append(accs[i], Access{
				Key:  fmt.Sprintf("k%d", r.Intn(nkeys)),
				Mode: Mode(r.Intn(3)),
			})
		}
	}
	return accs
}

func sortedU64(xs []uint64) []uint64 {
	out := append([]uint64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestShardedTrackerMatchesReference drives the sharded Tracker and the
// single-lock reference through the same random graphs and the same random
// completion orders, and requires identical behavior at every step: the same
// initial ready verdicts, the same per-task pending counts, the same edge
// count, and the same released batch after every Complete. Identical release
// batches for an arbitrary valid order mean the two trackers admit exactly
// the same execution schedules.
func TestShardedTrackerMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		const n = 80
		const nkeys = 7
		accs := randomAccesses(r, n, nkeys)

		sharded := NewTracker()
		ref := newRefTracker()
		var ready []uint64
		for i, acc := range accs {
			id := uint64(i + 1)
			rs, rr := sharded.Register(id, acc), ref.Register(id, acc)
			if rs != rr {
				t.Errorf("seed %d: task %d ready %v vs reference %v", seed, id, rs, rr)
				return false
			}
			if rs {
				ready = append(ready, id)
			}
		}
		if sharded.Edges() != ref.edges {
			t.Errorf("seed %d: edges %d vs reference %d", seed, sharded.Edges(), ref.edges)
			return false
		}
		for i := 1; i <= n; i++ {
			if sp, rp := sharded.Pending(uint64(i)), ref.Pending(uint64(i)); sp != rp {
				t.Errorf("seed %d: task %d pending %d vs reference %d", seed, i, sp, rp)
				return false
			}
		}
		done := 0
		for len(ready) > 0 {
			i := r.Intn(len(ready))
			id := ready[i]
			ready[i] = ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			done++
			got := sortedU64(sharded.Complete(id))
			want := sortedU64(ref.Complete(id))
			if len(got) != len(want) {
				t.Errorf("seed %d: Complete(%d) released %v, reference %v", seed, id, got, want)
				return false
			}
			for k := range got {
				if got[k] != want[k] {
					t.Errorf("seed %d: Complete(%d) released %v, reference %v", seed, id, got, want)
					return false
				}
			}
			ready = append(ready, got...)
		}
		return done == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedTrackerConcurrentComplete registers a wide random graph, then
// completes ready tasks from many goroutines at once (the contention pattern
// the sharding exists for) and checks every task is released exactly once.
// Run under -race this also proves Register/Complete publication is sound.
func TestShardedTrackerConcurrentComplete(t *testing.T) {
	const n = 4000
	const workers = 8
	r := xrand.New(11)
	accs := randomAccesses(r, n, 97)

	tr := NewTracker()
	work := make(chan uint64, n)
	var registered sync.WaitGroup
	registered.Add(1)
	go func() {
		defer registered.Done()
		for i, acc := range accs {
			id := uint64(i + 1)
			if tr.Register(id, acc) {
				work <- id
			}
		}
	}()

	var released sync.Map
	var done sync.WaitGroup
	var outstanding sync.WaitGroup
	outstanding.Add(n)
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func() {
			defer done.Done()
			for id := range work {
				if _, dup := released.LoadOrStore(id, true); dup {
					t.Errorf("task %d released twice", id)
				}
				for _, s := range tr.Complete(id) {
					work <- s
				}
				outstanding.Done()
			}
		}()
	}
	registered.Wait()
	outstanding.Wait()
	close(work)
	done.Wait()

	count := 0
	released.Range(func(_, _ any) bool { count++; return true })
	if count != n {
		t.Fatalf("released %d of %d tasks", count, n)
	}
	if tr.Tasks() != n {
		t.Fatalf("Tasks() = %d, want %d", tr.Tasks(), n)
	}
}
