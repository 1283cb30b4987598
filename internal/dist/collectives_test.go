package dist

import (
	"sync/atomic"
	"testing"
	"time"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/rt"
)

func TestBarrierOrdersAllRanks(t *testing.T) {
	// Every rank raises a flag before the barrier (with the slower ranks
	// artificially delayed) and counts raised flags after it; with a correct
	// barrier every rank counts all of them.
	const ranks = 5
	w := NewWorld(Config{Ranks: ranks, RT: func(int) rt.Config { return rt.Config{Workers: 2} }})
	var flags [ranks]atomic.Bool
	var seen [ranks]atomic.Int32
	tok := make([]buffer.F64, ranks)
	for rk := 0; rk < ranks; rk++ {
		tok[rk] = buffer.NewF64(1)
		rk := rk
		w.Comm().Rank(rk).Runtime().Submit("arrive", func(ctx *rt.Ctx) {
			time.Sleep(time.Duration(rk) * 2 * time.Millisecond)
			flags[rk].Store(true)
		}, rt.Inout("x", tok[rk]))
		w.Comm().Rank(rk).Barrier(1, rt.Inout("x", tok[rk]))
		w.Comm().Rank(rk).Runtime().Submit("check", func(ctx *rt.Ctx) {
			n := int32(0)
			for i := range flags {
				if flags[i].Load() {
					n++
				}
			}
			seen[rk].Store(n)
		}, rt.Inout("x", tok[rk]))
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for rk := 0; rk < ranks; rk++ {
		if got := seen[rk].Load(); got != ranks {
			t.Fatalf("rank %d passed the barrier seeing %d/%d arrivals", rk, got, ranks)
		}
	}
	// Dissemination traffic: ranks × ceil(log2 ranks) empty frames.
	if got, want := w.MessagesSent(), uint64(ranks*barrierRounds(ranks)); got != want {
		t.Fatalf("barrier sent %d messages, want %d", got, want)
	}
}

func TestWorldBarrierConsecutive(t *testing.T) {
	// Back-to-back world barriers must not cross-match their rounds.
	const ranks = 4
	w := NewWorld(Config{Ranks: ranks})
	for tag := 0; tag < 3; tag++ {
		w.Comm().Barrier(tag)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got, want := w.MessagesSent(), uint64(3*ranks*barrierRounds(ranks)); got != want {
		t.Fatalf("sent %d messages, want %d", got, want)
	}
}

func TestBroadcastFromEveryRoot(t *testing.T) {
	const ranks = 5 // non-power-of-two exercises the ragged tree
	for root := 0; root < ranks; root++ {
		w := NewWorld(Config{Ranks: ranks})
		bufs := make([]buffer.Buffer, ranks)
		for i := range bufs {
			bufs[i] = buffer.NewF64(4)
		}
		// The root's value is produced by a task the broadcast must wait for.
		w.Comm().Rank(root).Runtime().Submit("produce", func(ctx *rt.Ctx) {
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
		// A binomial tree moves exactly ranks-1 messages.
		if got := w.MessagesSent(); got != ranks-1 {
			t.Fatalf("root %d: broadcast sent %d messages, want %d", root, got, ranks-1)
		}
	}
}

func TestConcurrentSameTagBroadcasts(t *testing.T) {
	// Two same-tag broadcasts rooted at different ranks run concurrently on
	// independent regions; their trees share directed links (e.g. 0→2
	// appears in both), so without the root subchannel in the mailbox key
	// the payloads could cross-match.
	const ranks = 4
	w := NewWorld(Config{Ranks: ranks, RT: func(int) rt.Config { return rt.Config{Workers: 2} }})
	a := make([]buffer.Buffer, ranks)
	b := make([]buffer.Buffer, ranks)
	for i := 0; i < ranks; i++ {
		a[i] = buffer.NewF64(2)
		b[i] = buffer.NewF64(2)
	}
	a[0].(buffer.F64)[0] = 111
	b[3].(buffer.F64)[0] = 333
	w.Comm().Broadcast(0, 7, "a", a)
	w.Comm().Broadcast(3, 7, "b", b)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ranks; i++ {
		if a[i].(buffer.F64)[0] != 111 || b[i].(buffer.F64)[0] != 333 {
			t.Fatalf("rank %d: a=%v b=%v (broadcast payloads crossed)", i,
				a[i].(buffer.F64)[0], b[i].(buffer.F64)[0])
		}
	}
}

func TestAllgatherRing(t *testing.T) {
	// Non-power-of-two rank count; every rank's block is produced by a task
	// the ring must wait for, and every rank must end with every block.
	const ranks = 5
	const blockLen = 3
	w := NewWorld(Config{Ranks: ranks, RT: func(int) rt.Config { return rt.Config{Workers: 2} }})
	name := func(j int) string { return "blk" + string(rune('0'+j)) }
	bufs := make([][]buffer.Buffer, ranks)
	for i := 0; i < ranks; i++ {
		bufs[i] = make([]buffer.Buffer, ranks)
		for j := 0; j < ranks; j++ {
			bufs[i][j] = buffer.NewF64(blockLen)
		}
		i := i
		w.Comm().Rank(i).Runtime().Submit("produce", func(ctx *rt.Ctx) {
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
	// The ring moves exactly n(n-1) messages, all over neighbor links.
	if got, want := w.MessagesSent(), uint64(ranks*(ranks-1)); got != want {
		t.Fatalf("allgather sent %d messages, want %d", got, want)
	}
}

func TestAllgatherSingleRankIsNoop(t *testing.T) {
	w := NewWorld(Config{Ranks: 1})
	b := buffer.F64{42}
	w.Comm().Allgather(0, func(int) string { return "b" }, [][]buffer.Buffer{{b}})
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if w.MessagesSent() != 0 || b[0] != 42 {
		t.Fatal("single-rank allgather must move nothing")
	}
}

func TestAllreduceOps(t *testing.T) {
	// Generic reduction: min, max and a user-supplied op over the same
	// per-rank values, each in its own World.
	const ranks = 4
	vals := func(i int) buffer.F64 { return buffer.F64{float64(i + 1), -float64(i + 1)} }
	cases := []struct {
		name string
		op   ReduceOp
		want buffer.F64
	}{
		{"min", OpMin, buffer.F64{1, -4}},
		{"max", OpMax, buffer.F64{4, -1}},
		{"user-product", func(dst, src []float64) {
			for j := range dst {
				dst[j] *= src[j]
			}
		}, buffer.F64{24, 24}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(Config{Ranks: ranks})
			bufs := make([]buffer.F64, ranks)
			for i := range bufs {
				bufs[i] = vals(i)
			}
			w.Comm().Allreduce(0, "s", bufs, tc.op)
			if err := w.Shutdown(); err != nil {
				t.Fatal(err)
			}
			for i := range bufs {
				for j := range tc.want {
					if bufs[i][j] != tc.want[j] {
						t.Fatalf("rank %d = %v, want %v", i, bufs[i], tc.want)
					}
				}
			}
		})
	}
}

func TestAllreduceSum(t *testing.T) {
	const ranks = 3
	w := NewWorld(Config{Ranks: ranks})
	bufs := make([]buffer.F64, ranks)
	for i := range bufs {
		bufs[i] = buffer.F64{float64(i + 1), 10 * float64(i+1)}
	}
	w.Comm().AllreduceSum(0, "s", bufs)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if bufs[i][0] != 6 || bufs[i][1] != 60 {
			t.Fatalf("rank %d = %v, want [6 60]", i, bufs[i])
		}
	}
	// Gather (ranks-1) plus broadcast (ranks-1).
	if got, want := w.MessagesSent(), uint64(2*(ranks-1)); got != want {
		t.Fatalf("allreduce sent %d messages, want %d", got, want)
	}
}

func TestAllreduceSumUnderReplication(t *testing.T) {
	// The reduction is a compute task: under complete replication with
	// injected faults it must still produce the exact sum, and the plumbing
	// must still move exactly 2(n-1) messages.
	const ranks = 4
	w := NewWorld(Config{Ranks: ranks, RT: func(rank int) rt.Config {
		return rt.Config{
			Workers:  2,
			Selector: core.ReplicateAll{},
			Injector: fault.NewFixedRate(uint64(rank)+5, 0.1, 0.1),
		}
	}})
	bufs := make([]buffer.F64, ranks)
	for i := range bufs {
		bufs[i] = buffer.F64{1}
	}
	w.Comm().AllreduceSum(0, "s", bufs)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if bufs[i][0] != ranks {
			t.Fatalf("rank %d = %v, want %d", i, bufs[i][0], ranks)
		}
	}
	if got, want := w.MessagesSent(), uint64(2*(ranks-1)); got != want {
		t.Fatalf("allreduce sent %d messages, want %d", got, want)
	}
}
