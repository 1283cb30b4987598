package deps

import "testing"

// TestCompletedNodeKeepsNothing: a completed node drops its payload and
// every successor, inline slot included, so a region still naming it as
// last writer pins neither its task nor the tasks registered after it.
func TestCompletedNodeKeepsNothing(t *testing.T) {
	var g Graph[*int]
	nodes := make([]*Node[*int], 4)
	for i := range nodes {
		nodes[i] = &Node[*int]{Val: new(int)}
	}
	g.Register(nodes[0], []Access{{"A", Out}})
	for _, n := range nodes[1:] { // three readers overflow the inline slot
		if g.Register(n, []Access{{"A", In}}) {
			t.Fatal("a reader ran before the writer completed")
		}
	}
	w := nodes[0]
	if got := g.Complete(w, nil); len(got) != 3 {
		t.Fatalf("completing the writer released %d readers, want 3", len(got))
	}
	if w.Val != nil || w.successors != nil || w.first[0] != nil {
		t.Fatalf("completed node keeps payload %v, successors %v, inline slot %v", w.Val, w.successors, w.first[0])
	}
}

// TestDerivedEdgesIgnoreTiming: the live edges (the pending counts) hold
// only edges to predecessors still running at registration; DerivedEdges
// counts every edge the accesses declare, so it is the same however far
// execution has got.
func TestDerivedEdgesIgnoreTiming(t *testing.T) {
	var g Graph[int]
	a, b, c := &Node[int]{Val: 1}, &Node[int]{Val: 2}, &Node[int]{Val: 3}
	g.Register(a, []Access{{"A", Out}})
	g.Complete(a, nil)
	g.Register(b, []Access{{"A", In}})
	g.Register(c, []Access{{"A", Inout}})
	if live := b.pending.Load() + c.pending.Load(); live != 1 || g.DerivedEdges() != 3 {
		t.Fatalf("%d live edges, %d derived, want 1 live (b→c) and 3 derived", live, g.DerivedEdges())
	}
}
