package place

import (
	"fmt"
	"sort"

	"appfit/internal/simnet"
	"appfit/internal/xrand"
)

// Options shapes the machine the optimizer packs onto and budgets the
// search. The zero value derives everything it can from the input
// placement handed to Optimize.
type Options struct {
	// PerNode is the node capacity in ranks (the paper's machine: 16
	// cores per node). 0 derives it from the input placement's densest
	// node; Optimize without either returns ErrOptions.
	PerNode int
	// Nodes is the number of nodes available. 0 means just enough:
	// max(ceil(ranks/PerNode), nodes the input placement occupies).
	Nodes int
	// Seed drives the local search's deterministic xrand stream; a fixed
	// seed reproduces the identical trajectory and result.
	Seed uint64
	// Budget is the number of local-search evaluations after the seed
	// candidates (default 256; <0 disables local search, keeping the
	// better of the greedy seed and the input). Only candidates that were
	// actually priced count: a proposal round that finds nothing movable
	// (all ranks node-mates, no spare slot reachable) spends no budget. A
	// machine that keeps failing to propose — degenerate, e.g. one node —
	// ends the search instead of spinning.
	Budget int
}

// Step is one evaluated candidate of the optimization trajectory.
type Step struct {
	// Move names what produced the candidate: "input", "greedy", "swap"
	// or "relocate".
	Move string
	// Eval is the candidate's price under the optimizer's cost models.
	Eval Eval
	// Accepted reports whether the candidate became the incumbent.
	Accepted bool
}

// Result is an optimization outcome.
type Result struct {
	// Topo is the best placement found, on the Options machine.
	Topo *simnet.Topology
	// Eval is Topo's price.
	Eval Eval
	// Input is the input placement's price under the same cost models
	// (zero value when Optimize was given no input placement).
	Input Eval
	// Trajectory lists every evaluated candidate in order: the baselines
	// first ("input", "greedy"), then each local-search move.
	Trajectory []Step
}

// Evals returns the number of candidate evaluations spent.
func (r Result) Evals() int { return len(r.Trajectory) }

// Optimize searches rank→node assignments of profile p against the
// meter's makespan (Evaluate) and returns the best placement found on the
// Options machine. start is the input placement to improve — typically
// the one the application runs today — and may be nil to search from
// scratch.
//
// The search is a greedy co-location seed refined by budgeted local
// search. The seed packs the heaviest-communicating unordered rank pairs
// onto shared nodes first, respecting capacity; local search proposes
// pairwise swaps and (when the machine has spare slots) relocations drawn
// from a deterministic xrand stream, priced incrementally (O(degree of the
// moved ranks) per candidate, not a full replay — DESIGN.md §9), and
// accepts strictly better candidates (Eval.Better: makespan, then wire
// bytes).
//
// Whenever the input placement fits the machine — always, when PerNode
// and Nodes are derived from it — it competes as a candidate, so the
// result never evaluates worse than the input. Explicit Options that the
// input does not fit (fewer nodes, tighter capacity) demote it to a
// baseline: Result.Input still prices it, but the returned placement is
// the best one satisfying the machine, even if the infeasible input was
// cheaper. All candidates, the input included, are priced under the input
// placement's link models (simnet.MemoryBus / simnet.Marenostrum without
// one), so the objective is apples to apples.
//
// Optimize searches over the profiled ranks only: a start placing *more*
// ranks than the profile contributes just its first p.Ranks() assignments,
// and the returned topology covers exactly p.Ranks() ranks — profile the
// whole World (or slice the placement) to optimize all of it. A start
// placing fewer ranks than the profile returns a wrapped ErrRanks.
func Optimize(p *Profile, start *simnet.Topology, opts Options) (Result, error) {
	ranks := p.Ranks()
	if start != nil && start.Ranks() < ranks {
		return Result{}, fmt.Errorf("place: %d-rank profile on a %d-rank input placement: %w",
			ranks, start.Ranks(), ErrRanks)
	}

	// Resolve the machine, deriving what the caller left zero.
	intra, inter := simnet.MemoryBus(), simnet.Marenostrum()
	var inputAssign []int // input placement, node ids renumbered densely
	inputNodes, inputCap := 0, 0
	if start != nil {
		intra, inter = start.Intra(), start.Inter()
		inputAssign = make([]int, ranks)
		renum := make(map[int]int)
		var ids []int
		for r := 0; r < ranks; r++ {
			nd := start.NodeOf(r)
			if _, ok := renum[nd]; !ok {
				renum[nd] = 0
				ids = append(ids, nd)
			}
		}
		sort.Ints(ids)
		for i, nd := range ids {
			renum[nd] = i
		}
		occ := make([]int, len(ids))
		for r := 0; r < ranks; r++ {
			inputAssign[r] = renum[start.NodeOf(r)]
			occ[inputAssign[r]]++
		}
		inputNodes = len(ids)
		for _, o := range occ {
			inputCap = max(inputCap, o)
		}
	}
	perNode := opts.PerNode
	if perNode == 0 {
		perNode = inputCap
	}
	if perNode < 1 {
		return Result{}, fmt.Errorf("place: per-node capacity %d and no input placement to derive it from: %w",
			opts.PerNode, ErrOptions)
	}
	nodes := opts.Nodes
	if nodes == 0 {
		nodes = max((ranks+perNode-1)/perNode, inputNodes)
	}
	// An assignment occupies at most one node per rank, so a machine with
	// more nodes than ranks is equivalent to one with exactly ranks nodes
	// — and simnet.NewTopology requires node ids < ranks, so clamping also
	// keeps every relocation candidate constructible.
	nodes = min(nodes, ranks)
	if nodes*perNode < ranks {
		return Result{}, fmt.Errorf("place: %d ranks on %d nodes × %d: %w", ranks, nodes, perNode, ErrOptions)
	}
	budget := opts.Budget
	if budget == 0 {
		budget = 256
	}

	// Incumbent: the input when it fits the machine, challenged by the
	// greedy seed; local search climbs from whichever won.
	res := Result{}
	var cur *pricer
	var curEval Eval
	if inputAssign != nil {
		feasible := inputNodes <= nodes && inputCap <= perNode
		in := newPricer(p, inputAssign, intra, inter)
		res.Input = in.eval()
		res.Trajectory = append(res.Trajectory, Step{Move: "input", Eval: res.Input, Accepted: feasible})
		if feasible {
			cur, curEval = in, res.Input
		}
	}
	seed, err := greedySeed(p, nodes, perNode)
	if err != nil {
		return Result{}, err
	}
	greedy := newPricer(p, seed, intra, inter)
	ev := greedy.eval()
	accepted := cur == nil || ev.Better(curEval)
	if accepted {
		cur, curEval = greedy, ev
	}
	res.Trajectory = append(res.Trajectory, Step{Move: "greedy", Eval: ev, Accepted: accepted})

	best, bestEval := cur.assign, curEval
	if budget > 0 && nodes >= 2 {
		best, bestEval, res.Trajectory = localSearch(cur, curEval, nodes, perNode, budget, opts.Seed, res.Trajectory)
	}
	topo, err := simnet.NewTopology(best, intra, inter)
	if err != nil {
		return Result{}, err
	}
	res.Topo, res.Eval = topo, bestEval
	return res, nil
}

// optimizeHook, when non-nil, observes the local search's bookkeeping
// after every priced candidate: the incumbent assignment and the per-node
// load array. Test-only — the trajectory-long invariant that load always
// matches the incumbent (TestOptimizeLoadInvariant) lives behind it.
var optimizeHook func(cur, load []int)

// localSearch hill-climbs from pr's assignment (priced curEval) by budget
// swap/relocate moves, each priced incrementally and undone by its inverse
// move when it is not strictly Better. Returns the best assignment priced
// and its Eval, with every candidate appended to traj.
func localSearch(pr *pricer, curEval Eval, nodes, perNode, budget int, seed uint64, traj []Step) ([]int, Eval, []Step) {
	cur := pr.assign
	ranks := len(cur)
	rng := xrand.New(seed)
	load := make([]int, nodes)
	for _, nd := range cur {
		load[nd]++
	}
	best, bestEval := append([]int(nil), cur...), curEval

	spare := nodes*perNode - ranks
	// A proposal round that finds nothing movable spends no budget
	// (Options.Budget counts priced candidates); maxFailStreak consecutive
	// empty rounds means the machine is degenerate — end the search.
	const maxFailStreak = 64
	failStreak := 0
	for evals := 0; evals < budget && failStreak < maxFailStreak; {
		move := "swap"
		if spare > 0 && rng.Intn(4) == 0 {
			move = "relocate"
		}
		// A swap moves a to b's node and b to a's; a relocation moves a
		// alone (b == a) to a node with a free slot.
		ok := false
		var a, b, na, nb int
		for try := 0; try < 8 && !ok; try++ {
			a = rng.Intn(ranks)
			if move == "swap" {
				b = rng.Intn(ranks)
				na, nb = cur[b], cur[a]
				ok = na != cur[a]
			} else {
				b, na = a, rng.Intn(nodes)
				nb = na
				ok = na != cur[a] && load[na] < perNode
			}
		}
		if !ok {
			failStreak++
			continue
		}
		failStreak = 0
		evals++

		oa, ob := cur[a], cur[b]
		pr.move(a, na, b, nb)
		ev := pr.eval()
		accepted := ev.Better(curEval)
		if accepted {
			if move == "relocate" {
				load[oa]--
				load[na]++
			}
			curEval = ev
			if ev.Better(bestEval) {
				copy(best, cur)
				bestEval = ev
			}
		} else {
			pr.move(a, oa, b, ob)
		}
		traj = append(traj, Step{Move: move, Eval: ev, Accepted: accepted})
		if optimizeHook != nil {
			optimizeHook(cur, load)
		}
	}
	return best, bestEval, traj
}

// greedySeed packs the heaviest-communicating unordered rank pairs onto
// shared nodes first — the placement equivalent of the paper's
// co-location intuition: 15/16 of a rank's neighbors should be reachable
// over the memory bus. Remaining ranks first-fit into spare slots. The
// result is deterministic: weights tie-break by pair index. A machine
// without a slot for every rank returns a wrapped ErrCapacity — Optimize
// validates nodes×perNode ≥ ranks before calling, so hitting it means
// capacity accounting drifted, and an error keeps that failure at its
// cause instead of an index panic.
func greedySeed(p *Profile, nodes, perNode int) ([]int, error) {
	ranks := p.Ranks()
	type pairW struct {
		a, b  int
		bytes int64
		msgs  uint64
	}
	agg := make(map[[2]int]*pairW)
	for _, e := range p.Entries() {
		if e.Src == e.Dst {
			continue // self traffic is placement-independent
		}
		a, b := e.Src, e.Dst
		if a > b {
			a, b = b, a
		}
		w := agg[[2]int{a, b}]
		if w == nil {
			w = &pairW{a: a, b: b}
			agg[[2]int{a, b}] = w
		}
		w.bytes += e.Bytes * int64(e.Count)
		w.msgs += e.Count
	}
	pairs := make([]*pairW, 0, len(agg))
	for _, w := range agg {
		pairs = append(pairs, w)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].bytes != pairs[j].bytes {
			return pairs[i].bytes > pairs[j].bytes
		}
		if pairs[i].msgs != pairs[j].msgs {
			return pairs[i].msgs > pairs[j].msgs
		}
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})

	assign := make([]int, ranks)
	for r := range assign {
		assign[r] = -1
	}
	load := make([]int, nodes)
	firstFit := func(need int) int {
		for nd := 0; nd < nodes; nd++ {
			if load[nd]+need <= perNode {
				return nd
			}
		}
		return -1
	}
	for _, w := range pairs {
		ca, cb := assign[w.a], assign[w.b]
		switch {
		case ca < 0 && cb < 0:
			if nd := firstFit(2); nd >= 0 {
				assign[w.a], assign[w.b] = nd, nd
				load[nd] += 2
			}
		case ca >= 0 && cb < 0:
			if load[ca] < perNode {
				assign[w.b] = ca
				load[ca]++
			}
		case ca < 0 && cb >= 0:
			if load[cb] < perNode {
				assign[w.a] = cb
				load[cb]++
			}
		}
	}
	for r := range assign {
		if assign[r] < 0 {
			nd := firstFit(1)
			if nd < 0 {
				return nil, fmt.Errorf("place: greedy seed: no free slot for rank %d on %d nodes × %d: %w",
					r, nodes, perNode, ErrCapacity)
			}
			assign[r] = nd
			load[nd]++
		}
	}
	return assign, nil
}
