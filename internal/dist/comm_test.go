package dist

import (
	"errors"
	"testing"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/rt"
)

func TestCommWorldSendRecv(t *testing.T) {
	w := NewWorld(Config{Ranks: 2})
	c := w.Comm()
	if c.Size() != 2 || c.ctx != 0 {
		t.Fatalf("world comm size=%d ctx=%d, want 2 and 0", c.Size(), c.ctx)
	}
	src := buffer.F64{42}
	dst := buffer.NewF64(1)
	c.Rank(0).Send(1, 0, "s", src)
	c.Rank(1).Recv(0, 0, "d", dst)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 42 {
		t.Fatalf("dst = %v, want 42", dst[0])
	}
}

func TestSplitDenseRenumber(t *testing.T) {
	// 6 ranks, two colors by parity, keys reversing world order: the new
	// comm ranks must be dense 0..2 ordered by key, not by world id.
	w := NewWorld(Config{Ranks: 6})
	colors := []int{0, 1, 0, 1, 0, 1}
	keys := []int{5, 4, 3, 2, 1, 0} // reversed
	subs, err := w.Comm().Split(colors, keys)
	if err != nil {
		t.Fatal(err)
	}
	if subs[0] != subs[2] || subs[0] != subs[4] || subs[1] != subs[3] || subs[1] != subs[5] {
		t.Fatal("members of one color must share a *Comm")
	}
	if subs[0] == subs[1] {
		t.Fatal("different colors must get different comms")
	}
	even, odd := subs[0], subs[1]
	if even.Size() != 3 || odd.Size() != 3 {
		t.Fatalf("sizes = %d, %d, want 3, 3", even.Size(), odd.Size())
	}
	// Ascending key order: even color keys are 5,3,1 for world 0,2,4 →
	// comm order world 4,2,0.
	if got := worldRanks(even); got[0] != 4 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("even group world ranks = %v, want [4 2 0]", got)
	}
	if got := worldRanks(odd); got[0] != 5 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("odd group world ranks = %v, want [5 3 1]", got)
	}
	if even.ctx == 0 || odd.ctx == 0 || even.ctx == odd.ctx {
		t.Fatalf("contexts %d, %d must be fresh and distinct", even.ctx, odd.ctx)
	}
	// Comm-local addressing: even comm rank 0 is world 4.
	src := buffer.F64{7}
	dst := buffer.NewF64(1)
	even.Rank(0).Send(2, 3, "s", src) // world 4 -> world 0
	even.Rank(2).Recv(0, 3, "d", dst)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 7 {
		t.Fatalf("sub-communicator p2p lost: %v", dst[0])
	}
}

func TestSplitNamedErrors(t *testing.T) {
	w := NewWorld(Config{Ranks: 4})
	c := w.Comm()
	if _, err := c.Split([]int{0, 0}, []int{0, 1}); !errors.Is(err, ErrSplitSize) {
		t.Fatalf("short slices: %v, want ErrSplitSize", err)
	}
	if _, err := c.Split([]int{0, -1, 0, 0}, []int{0, 1, 2, 3}); !errors.Is(err, ErrSplitColor) {
		t.Fatalf("negative color: %v, want ErrSplitColor", err)
	}
	if _, err := c.Split([]int{0, 0, 1, 1}, []int{2, 2, 0, 1}); !errors.Is(err, ErrSplitKey) {
		t.Fatalf("duplicate key: %v, want ErrSplitKey", err)
	}
	// Duplicate keys in different colors are fine.
	if _, err := c.Split([]int{0, 0, 1, 1}, []int{0, 1, 0, 1}); err != nil {
		t.Fatalf("cross-color duplicate keys must be legal: %v", err)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestRankBoundsRecordNamedError(t *testing.T) {
	// Out-of-range indices must not panic: Comm.Rank returns an inert
	// handle and records ErrRankOutOfRange for Shutdown to report.
	w := NewWorld(Config{Ranks: 2})
	cr := w.Comm().Rank(-1)
	if cr.id != -1 {
		t.Fatalf("inert handle ID = %d, want -1", cr.id)
	}
	if cr.Runtime() != nil {
		t.Fatal("inert handle must expose no rank or runtime")
	}
	if tid := cr.Send(0, 0, "s", buffer.F64{1}); tid != 0 {
		t.Fatalf("inert Send returned task id %d, want 0", tid)
	}
	cr.Barrier(0)
	if tid := w.Comm().Rank(0).Send(9, 0, "s", buffer.F64{1}); tid != 0 {
		t.Fatalf("Send to out-of-range partner returned task id %d, want 0", tid)
	}
	err := w.Shutdown()
	if !errors.Is(err, ErrRankOutOfRange) {
		t.Fatalf("Shutdown = %v, want ErrRankOutOfRange", err)
	}
	if got := w.MessagesSent(); got != 0 {
		t.Fatalf("inert operations sent %d messages", got)
	}
}

func TestSubcommCollectives(t *testing.T) {
	// Broadcast and allgather on a 3-member subgroup of a 5-rank world:
	// non-members see nothing, message counts are group-sized.
	w := NewWorld(Config{Ranks: 5})
	colors := []int{0, 1, 0, 1, 0}
	keys := []int{0, 0, 1, 1, 2}
	subs, err := w.Comm().Split(colors, keys)
	if err != nil {
		t.Fatal(err)
	}
	g := subs[0] // world 0, 2, 4
	bufs := make([]buffer.Buffer, 3)
	for i := range bufs {
		bufs[i] = buffer.NewF64(2)
	}
	bufs[1].(buffer.F64)[0] = 11 // root is comm rank 1 = world 2
	g.Broadcast(1, 0, "b", bufs)
	name := func(j int) string { return "blk" + string(rune('0'+j)) }
	gb := make([][]buffer.Buffer, 3)
	for i := range gb {
		gb[i] = make([]buffer.Buffer, 3)
		for j := range gb[i] {
			gb[i][j] = buffer.NewF64(1)
		}
		gb[i][i].(buffer.F64)[0] = float64(100 + i)
	}
	g.Allgather(1, name, gb)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if got := bufs[i].(buffer.F64)[0]; got != 11 {
			t.Fatalf("member %d broadcast got %v", i, got)
		}
		for j := range gb[i] {
			if got := gb[i][j].(buffer.F64)[0]; got != float64(100+j) {
				t.Fatalf("member %d allgather block %d = %v", i, j, got)
			}
		}
	}
	// Broadcast n-1 plus allgather n(n-1) on the 3-member group only.
	if got, want := w.MessagesSent(), uint64(2+3*2); got != want {
		t.Fatalf("sent %d messages, want %d", got, want)
	}
}

func TestSubcommBarrierCountsGroupOnly(t *testing.T) {
	w := NewWorld(Config{Ranks: 4})
	subs, err := w.Comm().Split([]int{0, 0, 0, 1}, []int{0, 1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	subs[0].Barrier(5)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got, want := w.MessagesSent(), uint64(3*barrierRounds(3)); got != want {
		t.Fatalf("3-member barrier sent %d messages, want %d", got, want)
	}
}

// treeReference replays AllreduceTree's exact fold schedule serially:
// pre-fold of the extras, ⌈log2 p⌉ doubling rounds on snapshots, post copy
// back — so the expected vectors are bitwise, whatever the values.
func treeReference(init [][]float64, op ReduceOp) [][]float64 {
	n := len(init)
	v := make([][]float64, n)
	for i := range init {
		v[i] = append([]float64(nil), init[i]...)
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	for j := 0; j+p < n; j++ {
		op(v[j], v[p+j])
	}
	for step := 1; step < p; step *= 2 {
		snap := make([][]float64, p)
		for i := 0; i < p; i++ {
			snap[i] = append([]float64(nil), v[i]...)
		}
		for i := 0; i < p; i++ {
			op(v[i], snap[i^step])
		}
	}
	for j := 0; j+p < n; j++ {
		copy(v[p+j], v[j])
	}
	return v
}

func TestAllreduceTreeNonPowerOfTwo(t *testing.T) {
	const n = 6 // p = 4 with 2 extras: exercises pre/post folding
	w := NewWorld(Config{Ranks: n})
	init := make([][]float64, n)
	bufs := make([]buffer.F64, n)
	for i := 0; i < n; i++ {
		init[i] = []float64{float64(i) + 0.25, float64(10 * i), -float64(i)}
		bufs[i] = append(buffer.F64(nil), init[i]...)
	}
	w.Comm().AllreduceTree(0, "v", bufs, OpSum)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	want := treeReference(init, OpSum)
	for i := 0; i < n; i++ {
		for j := range bufs[i] {
			if bufs[i][j] != want[i][j] {
				t.Fatalf("member %d = %v, want %v", i, bufs[i], want[i])
			}
		}
	}
	// p·log2(p) + 2(n−p) = 4·2 + 2·2.
	if got, want := w.MessagesSent(), uint64(12); got != want {
		t.Fatalf("tree sent %d messages, want %d", got, want)
	}
}

func TestAllreduceAutoSelectsByLength(t *testing.T) {
	// Short vectors take the gather path (2(n−1) messages), long vectors
	// the tree (p·log2 p at n = p = 4): the message count reveals the
	// algorithm.
	cases := []struct {
		name string
		vlen int
		want uint64
	}{
		{"short-gather", 4, 2 * 3},
		{"long-tree", TreeAllreduceCrossoverBytes / 8, 4 * 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			w := NewWorld(Config{Ranks: n})
			bufs := make([]buffer.F64, n)
			for i := range bufs {
				bufs[i] = buffer.NewF64(tc.vlen)
				bufs[i][0] = float64(i + 1)
			}
			w.Comm().AllreduceSum(0, "v", bufs)
			if err := w.Shutdown(); err != nil {
				t.Fatal(err)
			}
			for i := range bufs {
				if bufs[i][0] != 10 {
					t.Fatalf("member %d sum = %v, want 10", i, bufs[i][0])
				}
			}
			if got := w.MessagesSent(); got != tc.want {
				t.Fatalf("sent %d messages, want %d", got, tc.want)
			}
		})
	}
}

func TestAllreduceCustomOpNeverAutoTrees(t *testing.T) {
	// A custom op's commutativity is invisible to the runtime, so even a
	// long vector must stay on the rank-order gather path (2(n−1)
	// messages, not the tree's p·log2 p) — a non-commutative op silently
	// folded in tree order would be undetected corruption.
	const n = 4
	w := NewWorld(Config{Ranks: n})
	bufs := make([]buffer.F64, n)
	for i := range bufs {
		bufs[i] = buffer.NewF64(TreeAllreduceCrossoverBytes / 8)
		bufs[i][0] = float64(i + 1)
	}
	product := func(dst, src []float64) {
		for j := range dst {
			if src[j] != 0 {
				dst[j] *= src[j]
			}
		}
	}
	w.Comm().Allreduce(0, "v", bufs, product)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if bufs[i][0] != 24 {
			t.Fatalf("member %d product = %v, want 24", i, bufs[i][0])
		}
	}
	if got, want := w.MessagesSent(), uint64(2*(n-1)); got != want {
		t.Fatalf("custom op sent %d messages, want the gather path's %d", got, want)
	}
}

func TestCollectiveArgsMismatchRecorded(t *testing.T) {
	// Wrong-shaped collective buffers record ErrCollectiveArgs and submit
	// nothing — including a too-short inner Allgather slice, which must
	// not panic at submission.
	w := NewWorld(Config{Ranks: 3})
	c := w.Comm()
	c.Broadcast(0, 0, "b", make([]buffer.Buffer, 2))
	short := [][]buffer.Buffer{
		{buffer.NewF64(1), buffer.NewF64(1), buffer.NewF64(1)},
		{buffer.NewF64(1), buffer.NewF64(1)}, // one block missing
		{buffer.NewF64(1), buffer.NewF64(1), buffer.NewF64(1)},
	}
	c.Allgather(0, func(j int) string { return "g" }, short)
	err := w.Shutdown()
	if !errors.Is(err, ErrCollectiveArgs) {
		t.Fatalf("Shutdown = %v, want ErrCollectiveArgs", err)
	}
	if got := w.MessagesSent(); got != 0 {
		t.Fatalf("malformed collectives sent %d messages", got)
	}
}

func TestNewCollectivesBitwiseUnderFaults(t *testing.T) {
	// The satellite gate: tree Allreduce under complete replication with injected SDC/DUE must match the serial reference
	// replay bitwise — every fold is an ordinary compute task, so the
	// replication engine detects and repairs every injected fault.
	const n, L = 6, 8
	faulty := func(rank int) rt.Config {
		return rt.Config{
			Workers:  2,
			Selector: core.ReplicateAll{},
			Injector: fault.NewFixedRate(uint64(rank)*17+3, 0.1, 0.1),
		}
	}
	t.Run("tree-allreduce", func(t *testing.T) {
		w := NewWorld(Config{Ranks: n, RT: faulty})
		init := make([][]float64, n)
		bufs := make([]buffer.F64, n)
		for i := 0; i < n; i++ {
			init[i] = make([]float64, L)
			for j := range init[i] {
				init[i][j] = float64(j+1) / float64(i+2)
			}
			bufs[i] = append(buffer.F64(nil), init[i]...)
		}
		w.Comm().AllreduceTree(0, "v", bufs, OpSum)
		if err := w.Shutdown(); err != nil {
			t.Fatal(err)
		}
		want := treeReference(init, OpSum)
		for i := 0; i < n; i++ {
			for j := range bufs[i] {
				if bufs[i][j] != want[i][j] {
					t.Fatalf("member %d diverged from serial reference: %v vs %v", i, bufs[i], want[i])
				}
			}
		}
	})
}

func TestNilBufferRecordsNamedError(t *testing.T) {
	// A nil buffer would be dereferenced by the comm task on a worker
	// goroutine, where nothing can recover: every entry point refuses it
	// with ErrCollectiveArgs and submits nothing.
	const n = 4
	good := func() []buffer.Buffer { return anyBufs(f64s(n, 2)) }
	nilAt := func(i int) []buffer.Buffer { b := good(); b[i] = nil; return b }
	blocks := allgatherBlocks(n, 2)
	blocks[n-1][1] = nil
	for _, tc := range []struct {
		name string
		run  func(c *Comm) uint64
	}{
		{"Send", func(c *Comm) uint64 { return c.Rank(0).Send(1, 0, "x", nil) }},
		{"Recv", func(c *Comm) uint64 { return c.Rank(1).Recv(0, 0, "x", nil) }},
		{"Broadcast/member-0", func(c *Comm) uint64 { c.Broadcast(1, 0, "b", nilAt(0)); return 0 }},
		{"Broadcast/last-member", func(c *Comm) uint64 { c.Broadcast(0, 0, "b", nilAt(n-1)); return 0 }},
		{"BroadcastHier/root", func(c *Comm) uint64 { c.broadcast(true, 2, 0, "b", nilAt(2)); return 0 }},
		{"Allgather", func(c *Comm) uint64 { c.Allgather(0, blockName, blocks); return 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := blockWorld(t, n, 2, false)
			if id := tc.run(w.Comm()); id != 0 {
				t.Fatalf("task id = %d, want 0", id)
			}
			if err := worldErr(w); !errors.Is(err, ErrCollectiveArgs) {
				t.Fatalf("Err = %v, want ErrCollectiveArgs", err)
			}
			if err := w.Shutdown(); !errors.Is(err, ErrCollectiveArgs) {
				t.Fatalf("Shutdown = %v, want ErrCollectiveArgs", err)
			}
			if st := w.Stats(); st.Submitted != 0 || w.MessagesSent() != 0 {
				t.Fatalf("submitted %d tasks, sent %d messages, want none", st.Submitted, w.MessagesSent())
			}
		})
	}
}

// worldRanks returns c's members' world rank ids in comm rank order.
func worldRanks(c *Comm) []int {
	ids := make([]int, len(c.members))
	for i, r := range c.members {
		ids[i] = r.id
	}
	return ids
}
