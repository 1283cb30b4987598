package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/simnet"
)

// blockWorld builds an n-rank World placed ranks-per-node in contiguous
// blocks, with optional replication + fault injection.
func blockWorld(t *testing.T, n, perNode int, faulty bool) *World {
	t.Helper()
	topo, err := simnet.BlockTopology(n, perNode, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: n, Topology: topo}
	if faulty {
		cfg.RT = func(rank int) rt.Config {
			return rt.Config{
				Workers:  2,
				Selector: core.ReplicateAll{},
				Injector: fault.NewFixedRate(uint64(rank)*17+3, 0.05, 0.05),
			}
		}
	}
	return NewWorld(cfg)
}

func TestWorldTopologyTooSmall(t *testing.T) {
	topo, err := simnet.BlockTopology(4, 2, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(Config{Ranks: 8, Topology: topo})
	if !errors.Is(worldErr(w), ErrTopology) {
		t.Fatalf("Err = %v, want ErrTopology", worldErr(w))
	}
	if w.Topology() != nil {
		t.Fatal("undersized topology must be ignored")
	}
	if w.Comm().Hierarchical() {
		t.Fatal("world without a usable topology must stay flat")
	}
	_ = w.Shutdown()
}

func TestWorldTopologyLargerIsFine(t *testing.T) {
	// A machine topology bigger than the World places its first ranks.
	topo, err := simnet.MarenostrumTopology(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(Config{Ranks: 32, Topology: topo})
	if w.Topology() != topo || !w.Comm().Hierarchical() {
		t.Fatalf("topology dropped: %v hier=%v", w.Topology(), w.Comm().Hierarchical())
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalFlag(t *testing.T) {
	// Flat world: no topology.
	w := NewWorld(Config{Ranks: 4})
	if w.Comm().Hierarchical() {
		t.Fatal("no topology: flat")
	}
	_ = w.Shutdown()

	// One-rank-per-node topology: degenerate, stays flat.
	flat, err := simnet.BlockTopology(4, 1, simnet.Marenostrum(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	w = NewWorld(Config{Ranks: 4, Topology: flat})
	if w.Comm().Hierarchical() {
		t.Fatal("one rank per node: flat")
	}
	_ = w.Shutdown()

	// Real placement: world comm is hierarchical; a node-local sub-comm and
	// a one-per-node sub-comm are not.
	w = blockWorld(t, 8, 4, false)
	c := w.Comm()
	if !c.Hierarchical() {
		t.Fatal("8 ranks on 2 nodes: hierarchical")
	}
	locals, leaders, err := nodeSplit(c)
	if err != nil {
		t.Fatal(err)
	}
	if locals[0].Hierarchical() || leaders.Hierarchical() {
		t.Fatal("node-local and leaders groups must be flat")
	}
	// All members on one node: flat even though the World is placed.
	if locals[0].Size() != 4 {
		t.Fatalf("local group size %d", locals[0].Size())
	}
	_ = w.Shutdown()
}

func TestSplitByNode(t *testing.T) {
	// 7 ranks on 3 nodes (ragged tail): groups {0..2}, {3..5}, {6}.
	w := blockWorld(t, 7, 3, false)
	c := w.Comm()
	locals, leaders, err := nodeSplit(c)
	if err != nil {
		t.Fatal(err)
	}
	wantGroups := [][]int{{0, 1, 2}, {3, 4, 5}, {6}}
	for g, grp := range wantGroups {
		lc := locals[grp[0]]
		if got := worldRanks(lc); !reflect.DeepEqual(got, grp) {
			t.Fatalf("group %d = %v, want %v", g, got, grp)
		}
		for _, i := range grp {
			if locals[i] != lc {
				t.Fatalf("members of node %d do not share a comm", g)
			}
		}
	}
	if got := worldRanks(leaders); !reflect.DeepEqual(got, []int{0, 3, 6}) {
		t.Fatalf("leaders = %v, want [0 3 6]", got)
	}
	// Contexts all fresh and distinct.
	seen := map[uint64]bool{0: true}
	for _, cc := range []*Comm{locals[0], locals[3], locals[6], leaders} {
		if seen[cc.ctx] {
			t.Fatalf("context %d reused", cc.ctx)
		}
		seen[cc.ctx] = true
	}
	// A second call mints fresh contexts (MPI semantics, like Split).
	locals2, leaders2, err := nodeSplit(c)
	if err != nil {
		t.Fatal(err)
	}
	if locals2[0].ctx == locals[0].ctx || leaders2.ctx == leaders.ctx {
		t.Fatal("SplitByNode must mint fresh contexts per call")
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitByNodeFlatWorld(t *testing.T) {
	// Without a topology every member is its own node: singleton locals,
	// leaders spans the whole group.
	w := NewWorld(Config{Ranks: 3})
	locals, leaders, err := nodeSplit(w.Comm())
	if err != nil {
		t.Fatal(err)
	}
	for i, lc := range locals {
		if lc.Size() != 1 || worldRanks(lc)[0] != i {
			t.Fatalf("local %d = %v", i, worldRanks(lc))
		}
	}
	if got := worldRanks(leaders); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("leaders = %v", got)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastHierEveryRoot(t *testing.T) {
	// 7 ranks, 3 per node (ragged): every root, produced by a gated task.
	const ranks = 7
	for root := 0; root < ranks; root++ {
		w := blockWorld(t, ranks, 3, false)
		bufs := make([]buffer.Buffer, ranks)
		for i := range bufs {
			bufs[i] = buffer.NewF64(4)
		}
		w.Rank(root).Runtime().Submit("produce", func(ctx *rt.Ctx) {
			x := ctx.F64(0)
			for i := range x {
				x[i] = float64(100*root + i)
			}
		}, rt.Out("b", bufs[root]))
		w.Comm().Broadcast(root, 0, "b", bufs)
		if err := w.Shutdown(); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		for i := range bufs {
			got := bufs[i].(buffer.F64)
			for j := range got {
				if got[j] != float64(100*root+j) {
					t.Fatalf("root %d: rank %d got %v", root, i, got)
				}
			}
		}
		// Exactly n-1 messages whatever the root, like the flat tree: the
		// local tree of root's node is rooted at root itself, so no member
		// ever receives data it already holds.
		if got, want := w.MessagesSent(), uint64(ranks-1); got != want {
			t.Fatalf("root %d: hierarchical broadcast sent %d messages, want %d", root, got, want)
		}
	}
}

func TestAllgatherHier(t *testing.T) {
	// 8 ranks on 2 nodes; blocks produced by gated tasks; message count must
	// equal the flat ring's n(n-1) with only the placement changed.
	const ranks = 8
	const blockLen = 3
	w := blockWorld(t, ranks, 4, false)
	name := func(j int) string { return fmt.Sprintf("blk%d", j) }
	bufs := make([][]buffer.Buffer, ranks)
	for i := 0; i < ranks; i++ {
		bufs[i] = make([]buffer.Buffer, ranks)
		for j := 0; j < ranks; j++ {
			bufs[i][j] = buffer.NewF64(blockLen)
		}
		i := i
		w.Rank(i).Runtime().Submit("produce", func(ctx *rt.Ctx) {
			x := ctx.F64(0)
			for k := range x {
				x[k] = float64(100*i + k)
			}
		}, rt.Out(name(i), bufs[i][i]))
	}
	w.Comm().Allgather(0, name, bufs)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ranks; i++ {
		for j := 0; j < ranks; j++ {
			got := bufs[i][j].(buffer.F64)
			for k := range got {
				if got[k] != float64(100*j+k) {
					t.Fatalf("rank %d block %d = %v", i, j, got)
				}
			}
		}
	}
	if got, want := w.MessagesSent(), uint64(ranks*(ranks-1)); got != want {
		t.Fatalf("hierarchical allgather sent %d messages, want %d", got, want)
	}
}

func TestAllreduceHierUnderReplication(t *testing.T) {
	// The hierarchical folds are compute tasks: under complete replication
	// with injected faults the exact integer sum must still come out, with
	// the same 2(n-1) message count as the flat gather.
	const ranks = 9 // 3 nodes × 3: ragged none, leaders non-trivial
	w := blockWorld(t, ranks, 3, true)
	bufs := make([]buffer.F64, ranks)
	for i := range bufs {
		bufs[i] = buffer.F64{float64(i + 1), -float64(i + 1)}
	}
	w.Comm().AllreduceSum(0, "s", bufs)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	want := float64(ranks * (ranks + 1) / 2)
	for i := range bufs {
		if bufs[i][0] != want || bufs[i][1] != -want {
			t.Fatalf("rank %d = %v, want [%v %v]", i, bufs[i], want, -want)
		}
	}
	if got, want := w.MessagesSent(), uint64(2*(ranks-1)); got != want {
		t.Fatalf("hierarchical allreduce sent %d messages, want %d", got, want)
	}
}

// hierCase is a randomized topology + payload for the flat-vs-hierarchical
// equality property: a world size, a placement (possibly shared, possibly
// flat), a vector length, and integer-valued payload data — integer sums
// below 2⁵³ are exact in IEEE float64, so every fold association agrees
// bitwise and flat-vs-hierarchical equality is exact, not approximate.
type hierCase struct {
	n       int
	perNode int
	vecLen  int
	faulty  bool
	seed    int64
}

// Generate implements quick.Generator.
func (hierCase) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(hierCase{
		n:       2 + r.Intn(9),  // 2..10 ranks
		perNode: 1 + r.Intn(5),  // 1 (flat) .. 5 per node
		vecLen:  1 + r.Intn(6),  // short vectors keep the worlds quick
		faulty:  r.Intn(2) == 0, // half the samples inject SDC/DUE
		seed:    r.Int63(),
	})
}

// TestHierMatchesFlatBitwise is the satellite's testing/quick property:
// for random topologies, vector lengths and injected SDC/DUE faults (under
// complete replication), the hierarchical Broadcast, Allgather and
// Allreduce leave bitwise-identical buffers to the flat algorithms run on
// an unplaced world with the same inputs.
func TestHierMatchesFlatBitwise(t *testing.T) {
	prop := func(hc hierCase) bool {
		run := func(placed bool) ([][]float64, error) {
			cfg := Config{Ranks: hc.n}
			if placed {
				topo, err := simnet.BlockTopology(hc.n, hc.perNode, simnet.MemoryBus(), simnet.Marenostrum())
				if err != nil {
					return nil, err
				}
				cfg.Topology = topo
			}
			if hc.faulty {
				cfg.RT = func(rank int) rt.Config {
					return rt.Config{
						Workers:  2,
						Selector: core.ReplicateAll{},
						Injector: fault.NewFixedRate(uint64(rank)*13+1, 0.05, 0.05),
					}
				}
			}
			w := NewWorld(cfg)
			c := w.Comm()
			// Same deterministic inputs for both worlds.
			vals := rand.New(rand.NewSource(hc.seed + 1))
			fill := func(b buffer.F64) {
				for k := range b {
					b[k] = float64(vals.Intn(1<<21) - 1<<20)
				}
			}
			bcast := make([]buffer.Buffer, hc.n)
			for i := range bcast {
				bcast[i] = buffer.NewF64(hc.vecLen)
			}
			fill(bcast[hc.n-1].(buffer.F64))
			c.Broadcast(hc.n-1, 0, "b", bcast)

			name := func(j int) string { return fmt.Sprintf("g%d", j) }
			gather := make([][]buffer.Buffer, hc.n)
			for i := range gather {
				gather[i] = make([]buffer.Buffer, hc.n)
				for j := range gather[i] {
					gather[i][j] = buffer.NewF64(hc.vecLen)
				}
			}
			for i := range gather {
				fill(gather[i][i].(buffer.F64))
			}
			c.Allgather(1, name, gather)

			sum := make([]buffer.F64, hc.n)
			min := make([]buffer.F64, hc.n)
			for i := 0; i < hc.n; i++ {
				sum[i] = buffer.NewF64(hc.vecLen)
				min[i] = buffer.NewF64(hc.vecLen)
				fill(sum[i])
				fill(min[i])
			}
			c.Allreduce(2, "sum", sum, OpSum)
			c.Allreduce(3, "min", min, OpMin)

			if err := w.Shutdown(); err != nil {
				return nil, err
			}
			// Flatten every observable buffer into one comparison vector.
			var out [][]float64
			for i := 0; i < hc.n; i++ {
				row := append([]float64{}, bcast[i].(buffer.F64)...)
				for j := 0; j < hc.n; j++ {
					row = append(row, gather[i][j].(buffer.F64)...)
				}
				row = append(row, sum[i]...)
				row = append(row, min[i]...)
				out = append(out, row)
			}
			return out, nil
		}

		flat, err := run(false)
		if err != nil {
			t.Logf("flat world: %v", err)
			return false
		}
		hier, err := run(true)
		if err != nil {
			t.Logf("placed world: %v", err)
			return false
		}
		if !reflect.DeepEqual(flat, hier) {
			t.Logf("case %+v: hierarchical results diverge from flat", hc)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCustomOpStaysOnRankOrderGather(t *testing.T) {
	// A custom op's commutativity is invisible to the runtime, so even on a
	// placed communicator Allreduce must take the flat gather — the strict
	// comm-rank-order left fold — not the hierarchical fold, which groups
	// and reorders operands by node. The op here is associative but not
	// commutative (2×2 matrix multiply), and the placement is
	// non-contiguous, so a hierarchical dispatch would compute
	// (r0·r2)·(r1·r3) instead of ((r0·r1)·r2)·r3 and produce different
	// numbers.
	matmul := func(dst, src []float64) {
		a0, a1, a2, a3 := dst[0], dst[1], dst[2], dst[3]
		b0, b1, b2, b3 := src[0], src[1], src[2], src[3]
		dst[0], dst[1] = a0*b0+a1*b2, a0*b1+a1*b3
		dst[2], dst[3] = a2*b0+a3*b2, a2*b1+a3*b3
	}
	vals := [][]float64{
		{1, 2, 3, 4},
		{0, 1, 1, 0},
		{2, 0, 1, 3},
		{1, 1, 0, 2},
	}
	want := append([]float64{}, vals[0]...)
	for i := 1; i < 4; i++ {
		matmul(want, vals[i])
	}
	// Interleaved placement: nodes {0,2} and {1,3} — a hierarchical fold
	// would visibly reorder.
	topo, err := simnet.NewTopology([]int{0, 1, 0, 1}, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(Config{Ranks: 4, Topology: topo})
	if !w.Comm().Hierarchical() {
		t.Fatal("placement should mark the comm hierarchical")
	}
	bufs := make([]buffer.F64, 4)
	for i := range bufs {
		bufs[i] = append(buffer.F64{}, vals[i]...)
	}
	w.Comm().Allreduce(0, "m", bufs, matmul)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		for k := range want {
			if bufs[i][k] != want[k] {
				t.Fatalf("member %d = %v, want rank-order fold %v", i, bufs[i], want)
			}
		}
	}
}

func TestUndersizedTransportTopologyReports(t *testing.T) {
	// A placed transport smaller than the World must surface as a World
	// error with a Direct fallback, not as an index panic on the first
	// cross-rank send inside a worker goroutine.
	topo, err := simnet.BlockTopology(4, 2, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(Config{Ranks: 8, Transport: NewSimTopology(topo)})
	if !errors.Is(worldErr(w), ErrTopology) {
		t.Fatalf("Err = %v, want ErrTopology", worldErr(w))
	}
	c := w.Comm()
	dst := buffer.NewF64(1)
	c.Rank(6).Send(7, 0, "s", buffer.F64{9}) // ranks outside the placement
	c.Rank(7).Recv(6, 0, "d", dst)
	if err := w.Shutdown(); !errors.Is(err, ErrTopology) {
		t.Fatalf("Shutdown = %v, want wrapped ErrTopology", err)
	}
	if dst[0] != 9 {
		t.Fatalf("fallback transport lost the payload: %v", dst[0])
	}
}

func TestSimTopologyDistinguishesPlacement(t *testing.T) {
	// The motivating bug: the flat Sim priced every placement identically.
	// Same traffic — a pair exchange — once between node-mates, once across
	// nodes: the placed meter must charge them differently.
	topo, err := simnet.BlockTopology(4, 2, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 1 << 13
	run := func(partnerOf func(int) int) *Sim {
		sim := NewSimTopology(topo)
		w := NewWorld(Config{Ranks: 4, Transport: sim})
		c := w.Comm()
		for i := 0; i < 4; i++ {
			c.Rank(i).Send(partnerOf(i), 0, "s", buffer.NewF64(bytes/8))
			c.Rank(i).Recv(partnerOf(i), 0, "d", buffer.NewF64(bytes/8))
		}
		if err := w.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	good := run(func(i int) int { return i ^ 1 }) // node-mates
	bad := run(func(i int) int { return (i + 2) % 4 })
	if good.WireBytes() != 0 {
		t.Fatalf("node-mate exchange crossed the wire: %d bytes", good.WireBytes())
	}
	if bad.WireBytes() != 4*bytes {
		t.Fatalf("cross-node exchange wire bytes = %d, want %d", bad.WireBytes(), 4*bytes)
	}
	if good.Now() >= bad.Now() {
		t.Fatalf("good placement %v must beat bad placement %v", good.Now(), bad.Now())
	}
	wantGood := simnet.MemoryBus().TransferTime(bytes)
	if good.Now() != wantGood {
		t.Fatalf("intra-node exchange makespan %v, want one bus transfer %v", good.Now(), wantGood)
	}
}

func TestHierBeatsFlatVirtualTime(t *testing.T) {
	// The acceptance scenario at test scale: same placed fabric, same
	// workload; the only difference is whether the World's collectives know
	// the topology. The hierarchical allreduce and allgather must report a
	// lower link-occupancy makespan than the flat algorithms.
	const ranks, perNode, vecLen = 16, 4, 1024
	topo, err := simnet.MarenostrumTopology(ranks, perNode)
	if err != nil {
		t.Fatal(err)
	}
	run := func(placed bool) *Sim {
		sim := NewSimTopology(topo)
		cfg := Config{Ranks: ranks, Transport: sim}
		if placed {
			cfg.Topology = topo
		}
		w := NewWorld(cfg)
		c := w.Comm()
		red := make([]buffer.F64, ranks)
		for i := range red {
			red[i] = buffer.NewF64(vecLen)
			red[i][0] = 1
		}
		c.AllreduceSum(0, "r", red)
		name := func(j int) string { return fmt.Sprintf("b%d", j) }
		gather := make([][]buffer.Buffer, ranks)
		for i := range gather {
			gather[i] = make([]buffer.Buffer, ranks)
			for j := range gather[i] {
				gather[i][j] = buffer.NewF64(vecLen)
			}
		}
		c.Allgather(1, name, gather)
		if err := w.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if red[0][0] != ranks {
			t.Fatalf("allreduce sum = %v, want %d", red[0][0], ranks)
		}
		return sim
	}
	flat := run(false)
	hier := run(true)
	if hier.Now() >= flat.Now() {
		t.Fatalf("hierarchical makespan %v must beat flat %v on a placed fabric", hier.Now(), flat.Now())
	}
	if hier.WireBytes() >= flat.WireBytes() {
		t.Fatalf("hierarchical wire bytes %d must beat flat %d", hier.WireBytes(), flat.WireBytes())
	}
}

// nodeSplit mints c's node decomposition afresh: the node-local
// communicators indexed by parent comm rank, and the leaders communicator.
func nodeSplit(c *Comm) (locals []*Comm, leaders *Comm, err error) {
	d, err := c.splitByNode()
	if err != nil {
		return nil, nil, err
	}
	return d.locals, d.leaders, nil
}
