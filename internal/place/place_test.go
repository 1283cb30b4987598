package place

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"appfit/internal/simnet"
	"appfit/internal/xrand"
)

func mustTopo(t *testing.T, nodeOf []int) *simnet.Topology {
	t.Helper()
	topo, err := simnet.NewTopology(nodeOf, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestProfileAccounting(t *testing.T) {
	p := NewProfile(4)
	p.Add(0, 1, 100)
	p.Add(0, 1, 100)
	p.Add(0, 1, 50)
	p.AddN(2, 3, 10, 3)
	p.Add(1, 1, 7) // self traffic is recorded too

	// Same-size messages aggregate, sizes stay apart, pairs are directed
	// (nothing on 1→0) and self traffic is kept.
	want := []Entry{
		{Src: 0, Dst: 1, Bytes: 50, Count: 1},
		{Src: 0, Dst: 1, Bytes: 100, Count: 2},
		{Src: 1, Dst: 1, Bytes: 7, Count: 1},
		{Src: 2, Dst: 3, Bytes: 10, Count: 3},
	}
	if got := p.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Entries = %+v, want %+v", got, want)
	}
	// The cache must invalidate on Add.
	p.Add(3, 0, 1)
	if got := p.Entries(); len(got) != 5 {
		t.Fatalf("Entries after Add = %+v", got)
	}
}

func TestProfileBoundsPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("out-of-range Add must panic")
		} else if err, ok := r.(error); !ok || !errors.Is(err, ErrProfile) {
			t.Fatalf("panic %v, want wrapped ErrProfile", r)
		}
	}()
	NewProfile(2).Add(0, 2, 1)
}

// TestEvaluateMatchesMeter pins Evaluate to the meter whose price it
// claims: charging the same messages one by one must agree exactly.
func TestEvaluateMatchesMeter(t *testing.T) {
	topo := mustTopo(t, []int{0, 0, 1, 1})
	p := NewProfile(4)
	p.AddN(0, 2, 4096, 5) // wire
	p.AddN(0, 1, 4096, 5) // bus
	p.Add(3, 3, 1<<20)    // self: free

	m := simnet.NewMeter(topo)
	for _, e := range p.Entries() {
		for i := uint64(0); i < e.Count; i++ {
			m.Charge(e.Src, e.Dst, e.Bytes)
		}
	}
	ev, err := Evaluate(p, topo)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Makespan != m.Now() || ev.WireBytes != m.WireBytes() ||
		ev.Messages != m.Messages() || ev.BytesSent != m.BytesSent() {
		t.Fatalf("Evaluate = %+v, meter = (%d, %d, %d, %d)",
			ev, m.Now(), m.WireBytes(), m.Messages(), m.BytesSent())
	}

	if _, err := Evaluate(p, mustTopo(t, []int{0, 1})); !errors.Is(err, ErrRanks) {
		t.Fatalf("short topology: err = %v, want ErrRanks", err)
	}
}

// randomProfile builds a reproducible random traffic matrix.
func randomProfile(rng *xrand.Rand, ranks int) *Profile {
	p := NewProfile(ranks)
	msgs := 1 + rng.Intn(64)
	for i := 0; i < msgs; i++ {
		p.AddN(rng.Intn(ranks), rng.Intn(ranks), rng.Int63n(1<<16), 1+uint64(rng.Intn(4)))
	}
	return p
}

// randomAssign places ranks on up to nodes nodes, capacity-free (the
// derived Options will adopt whatever capacity this needs).
func randomAssign(rng *xrand.Rand, ranks, nodes int) []int {
	assign := make([]int, ranks)
	for r := range assign {
		assign[r] = rng.Intn(nodes)
	}
	return assign
}

// TestOptimizeNeverWorseThanInput is optimizer property (a): with the
// machine derived from the input placement, the returned placement never
// evaluates worse than the input (makespan first, wire bytes on ties).
func TestOptimizeNeverWorseThanInput(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		ranks := 2 + rng.Intn(14)
		p := randomProfile(rng, ranks)
		start, err := simnet.NewTopology(randomAssign(rng, ranks, 1+rng.Intn(ranks)),
			simnet.MemoryBus(), simnet.Marenostrum())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(p, start, Options{Seed: seed, Budget: 32})
		if err != nil {
			t.Log(err)
			return false
		}
		if res.Eval.Makespan > res.Input.Makespan {
			t.Logf("seed %d: optimized %d > input %d", seed, res.Eval.Makespan, res.Input.Makespan)
			return false
		}
		// Result.Eval must be honest: re-evaluating the returned topology
		// reproduces it.
		re, err := Evaluate(p, res.Topo)
		if err != nil || re != res.Eval {
			t.Logf("seed %d: re-eval %+v != reported %+v (err %v)", seed, re, res.Eval, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeDeterministic is optimizer property (c): a fixed seed
// reproduces the identical trajectory and placement.
func TestOptimizeDeterministic(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		ranks := 2 + rng.Intn(14)
		p := randomProfile(rng, ranks)
		opts := Options{PerNode: 1 + rng.Intn(4), Seed: seed, Budget: 32}
		a, errA := Optimize(p, nil, opts)
		b, errB := Optimize(p, nil, opts)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			// Infeasible machines must at least fail deterministically.
			return errors.Is(errA, ErrOptions) == errors.Is(errB, ErrOptions)
		}
		if !reflect.DeepEqual(a.Trajectory, b.Trajectory) || a.Eval != b.Eval {
			t.Logf("seed %d: trajectories diverge", seed)
			return false
		}
		for r := 0; r < ranks; r++ {
			if a.Topo.NodeOf(r) != b.Topo.NodeOf(r) {
				t.Logf("seed %d: placements diverge at rank %d", seed, r)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeColocatesPairs is the end-to-end sanity check behind the
// experiments table: on pair-partner traffic (the halo pattern) with room
// to co-locate every pair, the optimizer must reach the block placement's
// price from a scattered one — all traffic on the memory bus, zero wire
// bytes.
func TestOptimizeColocatesPairs(t *testing.T) {
	const ranks, perNode = 16, 4
	p := NewProfile(ranks)
	for r := 0; r < ranks; r++ {
		p.AddN(r, r^1, 32768, 8)
	}
	// Round-robin start: every pair split across nodes.
	scatter := make([]int, ranks)
	for r := range scatter {
		scatter[r] = r % (ranks / perNode)
	}
	start := mustTopo(t, scatter)
	res, err := Optimize(p, start, Options{PerNode: perNode, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	block, err := Evaluate(p, mustTopo(t, []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Eval.WireBytes != 0 {
		t.Fatalf("optimized placement leaks %d wire bytes; trajectory %+v", res.Eval.WireBytes, res.Trajectory)
	}
	if res.Eval.Makespan > block.Makespan {
		t.Fatalf("optimized %d > block %d", res.Eval.Makespan, block.Makespan)
	}
	if res.Eval.Makespan >= res.Input.Makespan {
		t.Fatalf("optimized %d must strictly beat the scattered input %d", res.Eval.Makespan, res.Input.Makespan)
	}
}

func TestOptimizeOptionErrors(t *testing.T) {
	p := NewProfile(4)
	p.Add(0, 1, 1)
	if _, err := Optimize(p, nil, Options{}); !errors.Is(err, ErrOptions) {
		t.Fatalf("no capacity and no input: err = %v, want ErrOptions", err)
	}
	if _, err := Optimize(p, nil, Options{PerNode: 1, Nodes: 2}); !errors.Is(err, ErrOptions) {
		t.Fatalf("4 ranks on 2×1 machine: err = %v, want ErrOptions", err)
	}
	short := mustTopo(t, []int{0, 0})
	if _, err := Optimize(p, short, Options{}); !errors.Is(err, ErrRanks) {
		t.Fatalf("short input placement: err = %v, want ErrRanks", err)
	}
}

// localSteps counts the trajectory's local-search candidates (everything
// after the "input"/"greedy" baselines).
func localSteps(res Result) int {
	n := 0
	for _, s := range res.Trajectory {
		if s.Move == "swap" || s.Move == "relocate" {
			n++
		}
	}
	return n
}

// TestOptimizeBudgetCountsPricedCandidates is the budget-semantics
// regression test: Options.Budget is "the number of local-search
// evaluations", so proposal rounds that find nothing movable must not
// consume it. On a one-node machine nothing is ever movable — the search
// must terminate with zero local steps instead of spinning or burning
// budget — and on a machine where most proposal rounds degenerate (two
// co-located ranks: swaps never apply, only spare-slot relocations do)
// every unit of budget must still price exactly one candidate.
func TestOptimizeBudgetCountsPricedCandidates(t *testing.T) {
	p := NewProfile(4)
	p.AddN(0, 1, 4096, 4)
	p.AddN(2, 3, 4096, 4)
	res, err := Optimize(p, nil, Options{PerNode: 4, Nodes: 1, Seed: 1, Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if n := localSteps(res); n != 0 {
		t.Fatalf("one-node machine priced %d local candidates, want 0", n)
	}

	p2 := NewProfile(2)
	p2.AddN(0, 1, 4096, 4)
	for seed := uint64(0); seed < 8; seed++ {
		res2, err := Optimize(p2, nil, Options{PerNode: 2, Nodes: 2, Seed: seed, Budget: 8})
		if err != nil {
			t.Fatal(err)
		}
		if n := localSteps(res2); n != 8 {
			t.Fatalf("seed %d: budget 8 priced %d local candidates, want 8 (degenerate rounds must not consume budget)", seed, n)
		}
	}
}

// TestGreedySeedFullMachine: a machine without a slot for every rank must
// fail with the named ErrCapacity, not an index panic — Optimize validates
// capacity up front, so greedySeed hitting this means accounting drifted,
// and the error keeps the failure at its cause.
func TestGreedySeedFullMachine(t *testing.T) {
	p := NewProfile(4)
	p.AddN(0, 1, 4096, 2)
	if _, err := greedySeed(p, 1, 2); !errors.Is(err, ErrCapacity) {
		t.Fatalf("4 ranks on a 1×2 machine: err = %v, want ErrCapacity", err)
	}
	assign, err := greedySeed(p, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 4 {
		t.Fatalf("assign = %v", assign)
	}
}

// TestOptimizeLoadInvariant is the trajectory-long bookkeeping check: the
// local search's per-node load array must match the incumbent assignment
// after every priced candidate — accepted or rejected, swap or relocate —
// so a rejected move, undone by its inverse, never dirties it.
func TestOptimizeLoadInvariant(t *testing.T) {
	defer func() { optimizeHook = nil }()
	checked := 0
	optimizeHook = func(cur, load []int) {
		want := make([]int, len(load))
		for _, nd := range cur {
			want[nd]++
		}
		if !reflect.DeepEqual(load, want) {
			t.Fatalf("load %v does not match incumbent occupancy %v", load, want)
		}
		checked++
	}
	rng := xrand.New(11)
	for seed := uint64(3); seed <= 4; seed++ {
		p := randomProfile(rng, 12)
		// 4 nodes × 4 slots for 12 ranks: spare capacity, so relocations
		// (and their rejections) are exercised.
		if _, err := Optimize(p, nil, Options{PerNode: 4, Nodes: 4, Seed: seed, Budget: 96}); err != nil {
			t.Fatal(err)
		}
	}
	if checked < 160 {
		t.Fatalf("hook observed only %d candidates", checked)
	}
}

// TestOptimizeConcurrentSearches is the multi-search driver under -race:
// several goroutines search the same shared profile from different seeds
// (the profile's read side is lock-protected, so no copies are needed) and
// the best result must be bitwise what the same seed finds serially.
func TestOptimizeConcurrentSearches(t *testing.T) {
	rng := xrand.New(13)
	const ranks, perNode, searches = 32, 8, 8
	p := randomProfile(rng, ranks)
	start := mustTopo(t, randomAssign(rng, ranks, ranks/perNode))

	results := make([]Result, searches)
	var wg sync.WaitGroup
	for i := 0; i < searches; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Optimize(p, start, Options{
				PerNode: perNode, Seed: uint64(i), Budget: 64,
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	best := 0
	for i := 1; i < searches; i++ {
		if results[i].Eval.Better(results[best].Eval) {
			best = i
		}
	}
	serial, err := Optimize(p, start, Options{
		PerNode: perNode, Seed: uint64(best), Budget: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Eval != results[best].Eval || !reflect.DeepEqual(serial.Trajectory, results[best].Trajectory) {
		t.Fatalf("concurrent search (seed %d) diverges from its serial replay", best)
	}
	if re, err := Evaluate(p, results[best].Topo); err != nil || re != results[best].Eval {
		t.Fatalf("best concurrent result is not honest: %+v vs %+v (err %v)", re, results[best].Eval, err)
	}
}

// TestOptimizeWideMachine covers a machine with more node slots than
// ranks: relocations must stay constructible (node ids are bounded by the
// rank count in simnet.NewTopology), so the search clamps to ranks nodes
// — which loses nothing, since an assignment can occupy at most one node
// per rank.
func TestOptimizeWideMachine(t *testing.T) {
	p := NewProfile(4)
	p.AddN(0, 1, 4096, 4)
	p.AddN(2, 3, 4096, 4)
	res, err := Optimize(p, nil, Options{PerNode: 1, Nodes: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if nd := res.Topo.NodeOf(r); nd < 0 || nd >= 4 {
			t.Fatalf("rank %d on node %d of a clamped 4-node machine", r, nd)
		}
	}
	// PerNode 1 forces everything onto the wire; with capacity 2 the wide
	// machine must still co-locate the pairs.
	res2, err := Optimize(p, nil, Options{PerNode: 2, Nodes: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Eval.WireBytes != 0 {
		t.Fatalf("wide machine with room: %d wire bytes", res2.Eval.WireBytes)
	}
}
