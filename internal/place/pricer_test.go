package place

import (
	"testing"
	"testing/quick"

	"appfit/internal/simnet"
	"appfit/internal/xrand"
)

// TestPricerMovesMatchFresh: across random profiles (self traffic
// included), random placements and random swap/relocate sequences — no-op
// moves, node-mate swaps and inverse-move undos included — the pricer's
// incrementally maintained price is bitwise the price of a pricer built
// from scratch at the same assignment. The fresh build is held to the
// meter by TestEvaluateMatchesMeter and TestEvaluateMatchesLiveSim.
func TestPricerMovesMatchFresh(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		ranks := 2 + rng.Intn(12)
		p := randomProfile(rng, ranks)
		nodes := 1 + rng.Intn(ranks)
		pr := newPricer(p, randomAssign(rng, ranks, nodes), simnet.MemoryBus(), simnet.Marenostrum())
		for i := 0; i < 64; i++ {
			a, b := rng.Intn(ranks), rng.Intn(ranks)
			oa, ob := pr.assign[a], pr.assign[b]
			if rng.Intn(2) == 0 {
				pr.move(a, ob, b, oa) // swap; a == b allowed
			} else {
				nd := rng.Intn(nodes) // relocate; nd == current allowed
				b, ob = a, oa
				pr.move(a, nd, a, nd)
			}
			fresh := newPricer(p, append([]int(nil), pr.assign...), simnet.MemoryBus(), simnet.Marenostrum())
			if got, want := pr.eval(), fresh.eval(); got != want {
				t.Logf("seed %d move %d: incremental %+v != fresh %+v", seed, i, got, want)
				return false
			}
			if rng.Intn(2) == 0 {
				pr.move(a, oa, b, ob) // undo by the inverse move
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
