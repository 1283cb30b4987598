package deps

import (
	"fmt"
	"testing"
	"testing/quick"

	"appfit/internal/xrand"
)

func TestModeSemantics(t *testing.T) {
	if !In.Reads() || In.Writes() {
		t.Fatal("in must read, not write")
	}
	if Out.Reads() || !Out.Writes() {
		t.Fatal("out must write, not read")
	}
	if !Inout.Reads() || !Inout.Writes() {
		t.Fatal("inout must read and write")
	}
	for _, m := range []Mode{In, Out, Inout, Mode(9)} {
		if m.String() == "" {
			t.Fatal("empty Mode string")
		}
	}
}

func TestRAW(t *testing.T) {
	tr := NewTracker()
	if !tr.Register(1, []Access{{"A", Out}}) {
		t.Fatal("writer with no history must be ready")
	}
	if tr.Register(2, []Access{{"A", In}}) {
		t.Fatal("reader must wait for writer")
	}
	ready := tr.Complete(1)
	if len(ready) != 1 || ready[0] != 2 {
		t.Fatalf("completing writer should release reader, got %v", ready)
	}
}

func TestWAR(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, []Access{{"A", Out}})
	tr.Complete(1)
	if !tr.Register(2, []Access{{"A", In}}) {
		t.Fatal("reader after completed writer must be ready")
	}
	if tr.Register(3, []Access{{"A", Out}}) {
		t.Fatal("writer must wait for in-flight reader (WAR)")
	}
	ready := tr.Complete(2)
	if len(ready) != 1 || ready[0] != 3 {
		t.Fatalf("got %v", ready)
	}
}

func TestWAW(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, []Access{{"A", Out}})
	if tr.Register(2, []Access{{"A", Out}}) {
		t.Fatal("second writer must wait for first (WAW)")
	}
	ready := tr.Complete(1)
	if len(ready) != 1 || ready[0] != 2 {
		t.Fatalf("got %v", ready)
	}
}

func TestConcurrentReaders(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, []Access{{"A", Out}})
	tr.Complete(1)
	for id := uint64(2); id <= 5; id++ {
		if !tr.Register(id, []Access{{"A", In}}) {
			t.Fatalf("reader %d should be ready (writer done)", id)
		}
	}
	// A writer must wait for all four readers.
	if tr.Register(6, []Access{{"A", Inout}}) {
		t.Fatal("inout must wait for readers")
	}
	if p := tr.Pending(6); p != 4 {
		t.Fatalf("pending = %d, want 4", p)
	}
	for id := uint64(2); id <= 4; id++ {
		if r := tr.Complete(id); len(r) != 0 {
			t.Fatalf("early release: %v", r)
		}
	}
	if r := tr.Complete(5); len(r) != 1 || r[0] != 6 {
		t.Fatalf("got %v", r)
	}
}

func TestFigure1Semantics(t *testing.T) {
	// The paper's Figure 1: tasks A1, A2 operate on array A (inout), task B
	// on array B (inout). Dataflow lets B run before/with A1; A2 depends
	// only on A1.
	tr := NewTracker()
	readyA1 := tr.Register(1, []Access{{"A", Inout}})
	readyA2 := tr.Register(2, []Access{{"A", Inout}})
	readyB := tr.Register(3, []Access{{"B", Inout}})
	if !readyA1 {
		t.Fatal("A1 must be ready")
	}
	if readyA2 {
		t.Fatal("A2 must depend on A1")
	}
	if !readyB {
		t.Fatal("B must be independent of A1/A2 under dataflow")
	}
}

func TestDedupEdges(t *testing.T) {
	// A successor depending on the same predecessor through two regions
	// must count it once.
	tr := NewTracker()
	tr.Register(1, []Access{{"A", Out}, {"B", Out}})
	tr.Register(2, []Access{{"A", In}, {"B", In}})
	if p := tr.Pending(2); p != 1 {
		t.Fatalf("pending = %d, want 1 (dedup)", p)
	}
	if tr.Edges() != 1 {
		t.Fatalf("edges = %d, want 1", tr.Edges())
	}
}

func TestInoutChain(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, []Access{{"X", Inout}})
	tr.Register(2, []Access{{"X", Inout}})
	tr.Register(3, []Access{{"X", Inout}})
	if tr.Pending(2) != 1 || tr.Pending(3) != 1 {
		t.Fatal("inout chain must serialize, each waiting only on prior")
	}
	if r := tr.Complete(1); len(r) != 1 || r[0] != 2 {
		t.Fatalf("got %v", r)
	}
	if r := tr.Complete(2); len(r) != 1 || r[0] != 3 {
		t.Fatalf("got %v", r)
	}
}

func TestDuplicateIDPanics(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate id must panic")
		}
	}()
	tr.Register(1, nil)
}

func TestZeroIDPanics(t *testing.T) {
	tr := NewTracker()
	defer func() {
		if recover() == nil {
			t.Fatal("id 0 must panic")
		}
	}()
	tr.Register(0, nil)
}

func TestDoubleCompletePanics(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, nil)
	tr.Complete(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double complete must panic")
		}
	}()
	tr.Complete(1)
}

func TestPendingUnknown(t *testing.T) {
	if NewTracker().Pending(99) != -1 {
		t.Fatal("unknown task should report -1")
	}
}

// TestNewTrackerAllocs pins what an idle tracker costs: a dist.World starts
// one per rank, so region and node tables are built by the first Register
// that needs them, not by NewTracker.
func TestNewTrackerAllocs(t *testing.T) {
	var tr *Tracker
	if n := testing.AllocsPerRun(100, func() { tr = NewTracker() }); n > 2 {
		t.Fatalf("NewTracker allocates %v objects, want <= 2", n)
	}
	if !tr.Register(1, []Access{{"A", Out}}) || tr.Pending(1) != 0 {
		t.Fatal("a fresh tracker must register a ready task")
	}
}

// TestPredsFirstSeenOrder holds derivePreds to its order contract on both
// sides of the de-duplication threshold: predecessors come back once each,
// in the order the accesses first name them.
func TestPredsFirstSeenOrder(t *testing.T) {
	for _, readers := range []int{3, dedupScan, dedupScan + 1, 1000} {
		var r regions
		r.derivePreds(1, []Access{{"A", Out}, {"B", Out}})
		want := []uint64{1}
		for i := 0; i < readers; i++ {
			id := uint64(2 + i)
			r.derivePreds(id, []Access{{"A", In}, {"B", In}})
			want = append(want, id)
		}
		// The writer meets task 1 and every reader through both regions.
		got := r.derivePreds(uint64(2+readers), []Access{{"A", Inout}, {"B", Inout}})
		if len(got) != len(want) {
			t.Fatalf("readers=%d: %d predecessors, want %d", readers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("readers=%d: predecessor %d is task %d, want %d", readers, i, got[i], want[i])
			}
		}
	}
}

// derive runs accs through the Tracker's edge rule in program order, task i
// under id i+1, and returns each task's predecessors as task indices.
func derive(accs [][]Access) [][]int {
	var r regions
	preds := make([][]int, len(accs))
	for i, acc := range accs {
		for _, p := range r.derivePreds(uint64(i+1), acc) {
			preds[i] = append(preds[i], int(p-1))
		}
	}
	return preds
}

// TestDerivePredsDeterministic: the edge rule run twice over the same
// accesses lists every task's predecessors in the same order — the order a
// map-typed predecessor set used to shuffle from run to run.
func TestDerivePredsDeterministic(t *testing.T) {
	r := xrand.New(7)
	accs := randomAccesses(r, 200, 5)
	first := fmt.Sprint(derive(accs))
	for i := 0; i < 20; i++ {
		if fmt.Sprint(derive(accs)) != first {
			t.Fatalf("run %d ordered its edges differently", i+1)
		}
	}
	// First-seen order, spelled out: task 3 reads B (written by 1) before A
	// (written by 0), so its predecessors are [1 0], not sorted.
	preds := derive([][]Access{
		{{"A", Out}},
		{{"B", Out}},
		{{"C", Out}},
		{{"B", In}, {"A", In}, {"B", In}},
	})
	if got := fmt.Sprint(preds[3]); got != "[1 0]" {
		t.Fatalf("preds = %s, want [1 0]", got)
	}
}

// TestPropertyAllTasksEventuallyReady simulates random graphs and checks that
// completing tasks in any valid order releases every task exactly once.
func TestPropertyAllTasksEventuallyReady(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		tr := NewTracker()
		const n = 60
		const nkeys = 8
		ready := []uint64{}
		readyCount := 0
		for id := uint64(1); id <= n; id++ {
			na := 1 + r.Intn(3)
			var acc []Access
			for j := 0; j < na; j++ {
				acc = append(acc, Access{
					Key:  fmt.Sprintf("k%d", r.Intn(nkeys)),
					Mode: Mode(r.Intn(3)),
				})
			}
			if tr.Register(id, acc) {
				ready = append(ready, id)
			}
		}
		done := 0
		for len(ready) > 0 {
			// Pop a random ready task.
			i := r.Intn(len(ready))
			id := ready[i]
			ready[i] = ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			done++
			ready = append(ready, tr.Complete(id)...)
		}
		readyCount = done
		return readyCount == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRegisterChain(b *testing.B) {
	tr := NewTracker()
	for i := 0; i < b.N; i++ {
		id := uint64(i + 1)
		tr.Register(id, []Access{{"X", Inout}})
		if i > 0 {
			tr.Complete(uint64(i))
		}
	}
}
