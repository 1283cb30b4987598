package dist

import (
	"errors"
	"runtime"
	"testing"

	"appfit/internal/buffer"
	"appfit/internal/rt"
)

// outstanding is the number of buffers the World pool has handed out and not
// got back. The tests below read it as a delta around one World lifetime;
// no test in this package runs in parallel, so the delta is that World's.
func outstanding() int64 {
	st := pool.Stats()
	return int64(st.Leases) - int64(st.Returns)
}

// TestPayloadLeaseBalance: over a World lifetime of every collective family,
// of point-to-point traffic and of barriers — ranks replicating under
// injected faults, so the engines' leases are on the same books — every
// buffer the pool handed out is back after Shutdown: each payload was
// returned by exactly one receive, each staging buffer by Shutdown, each
// engine copy by its task.
func TestPayloadLeaseBalance(t *testing.T) {
	cases := append([]trafficCase{
		{"P2P", func(c *Comm) {
			n := c.Size()
			src, dst := f64s(n, 33), f64s(n, 33)
			for i := 0; i < n; i++ {
				c.Rank(i).Send((i+1)%n, 3, "s", src[i])
				c.Rank(i).Recv(mod(i-1, n), 3, "d", dst[i])
			}
		}},
		{"P2P/empty-payload", func(c *Comm) {
			// A zero-length payload is still a lease, unlike a barrier frame.
			c.Rank(0).Send(1, 4, "s", buffer.F64{})
			c.Rank(1).Recv(0, 4, "d", buffer.F64{})
		}},
	}, trafficCases...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := outstanding()
			w := blockWorld(t, 8, 2, true)
			tc.run(w.Comm())
			if err := w.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if d := outstanding() - before; d != 0 {
				t.Fatalf("%d buffers of the World pool never came back", d)
			}
		})
	}
}

// TestMismatchedRecvReturnsLease: a receive whose buffer does not fit the
// payload reports the mismatch and still ends the payload's lease.
func TestMismatchedRecvReturnsLease(t *testing.T) {
	before := outstanding()
	w := NewWorld(Config{Ranks: 2})
	w.Comm().Rank(0).Send(1, 0, "s", buffer.NewF64(4))
	w.Comm().Rank(1).Recv(0, 0, "d", buffer.NewF64(5))
	if err := w.Shutdown(); !errors.Is(err, buffer.ErrCopy) {
		t.Fatalf("Shutdown = %v, want the length mismatch", err)
	}
	if d := outstanding() - before; d != 0 {
		t.Fatalf("%d buffers of the World pool never came back", d)
	}
}

// TestDanglingSendKeepsItsLease: a payload nobody receives is never
// returned — the transport drops it at Close for the collector — so the
// books show exactly that one lease.
func TestDanglingSendKeepsItsLease(t *testing.T) {
	before := outstanding()
	w := NewWorld(Config{Ranks: 2})
	src, dst := buffer.F64{1, 2, 3}, buffer.NewF64(3)
	w.Comm().Rank(0).Send(1, 0, "s", src)
	w.Comm().Rank(1).Recv(0, 0, "d", dst)
	w.Comm().Rank(0).Send(1, 9, "s", src) // no matching Recv
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if d := outstanding() - before; d != 1 {
		t.Fatalf("pool is %d buffers short, want exactly the 1 undelivered payload", d)
	}
}

// TestSendSnapshotSurvivesOverwrite: the payload is a private copy made when
// the send task fires. A task that rewrites the sent region right behind the
// send — Inout on the same region, so it runs the instant the send returns,
// typically long before the receive matches — never changes what arrives.
func TestSendSnapshotSurvivesOverwrite(t *testing.T) {
	const k, L = 64, 257
	w := NewWorld(Config{Ranks: 2, RT: func(int) rt.Config { return rt.Config{Workers: 2} }})
	a, d := buffer.NewF64(L), buffer.NewF64(L)
	got := buffer.NewF64(k)
	for i := 0; i < k; i++ {
		v := float64(i + 1)
		w.Comm().Rank(0).Runtime().Submit("set", func(ctx *rt.Ctx) {
			for j := range ctx.F64(0) {
				ctx.F64(0)[j] = v
			}
		}, rt.Inout("a", a))
		w.Comm().Rank(0).Send(1, 0, "a", a)
		w.Comm().Rank(0).Runtime().Submit("clobber", func(ctx *rt.Ctx) {
			for j := range ctx.F64(0) {
				ctx.F64(0)[j] = -v
			}
		}, rt.Inout("a", a))
		w.Comm().Rank(1).Recv(0, 0, "d", d)
		i := i
		w.Comm().Rank(1).Runtime().Submit("check", func(ctx *rt.Ctx) {
			for _, x := range ctx.F64(0) {
				if x != v {
					ctx.F64(1)[i] = x
					return
				}
			}
			ctx.F64(1)[i] = v
		}, rt.In("d", d), rt.Inout("got", got))
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != float64(i+1) {
			t.Fatalf("message %d delivered %v, want the snapshot %d", i, x, i+1)
		}
	}
}

// TestWorldStatsCountPoolOnce: the ranks share one pool, so the World's
// aggregate reports the pool's traffic once — not once per rank — and a
// rank on its own reports none.
func TestWorldStatsCountPoolOnce(t *testing.T) {
	before := pool.Stats()
	w := blockWorld(t, 16, 4, true)
	w.Comm().Allreduce(1, "v", f64s(16, 512), OpSum)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	got := w.Stats().Pool
	want := buffer.PoolStats{
		Leases:  after.Leases - before.Leases,
		Hits:    after.Hits - before.Hits,
		Returns: after.Returns - before.Returns,
	}
	if got != want {
		t.Fatalf("World.Stats().Pool = %+v, want the pool's own delta %+v", got, want)
	}
	if got.Leases < w.MessagesSent() {
		t.Fatalf("%d leases cannot cover %d payloads", got.Leases, w.MessagesSent())
	}
	for i := 0; i < len(w.ranks); i++ {
		if st := w.Comm().Rank(i).Runtime().Stats().Pool; st != (buffer.PoolStats{}) {
			t.Fatalf("rank %d reports the shared pool's traffic itself: %+v", i, st)
		}
	}
	// The pool outlives the World; the World's count stops at its Shutdown.
	next := NewWorld(Config{Ranks: 2})
	next.Comm().Rank(0).Send(1, 0, "s", buffer.F64{1})
	next.Comm().Rank(1).Recv(0, 0, "d", buffer.NewF64(1))
	if err := next.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if again := w.Stats().Pool; again != want {
		t.Fatalf("a later World moved a finished World's count: %+v, was %+v", again, want)
	}
}

// TestMessageAllocationCeiling: in a warm World a message's payload comes
// from the pool, so an extra 32 KB message allocates its two task
// descriptors and nothing like its size (33 KB when the send cloned).
func TestMessageAllocationCeiling(t *testing.T) {
	const L = 32 << 10 / 8
	pingpong := func(msgs int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := NewWorld(Config{Ranks: 2})
		a, b := buffer.NewF64(L), buffer.NewF64(L)
		for i := 0; i < msgs/2; i++ {
			// One message in flight at a time: each rank's receive is ordered
			// behind its send by the region they share.
			w.Comm().Rank(0).Send(1, 0, "a", a)
			w.Comm().Rank(1).Recv(0, 0, "b", b)
			w.Comm().Rank(1).Send(0, 0, "b", b)
			w.Comm().Rank(0).Recv(1, 0, "a", a)
			if i%64 == 63 {
				// Drain, so the graphs' own tables stay the size of a batch
				// and their growth is not billed to the messages.
				w.Comm().Rank(0).Runtime().Taskwait()
				w.Comm().Rank(1).Runtime().Taskwait()
			}
		}
		if err := w.Shutdown(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	pingpong(100) // warm the pool's 32 KB bin
	one, two := pingpong(1000), pingpong(2000)
	if perMsg := (int64(two) - int64(one)) / 1000; perMsg >= 1024 {
		t.Fatalf("an extra 32 KB message allocates %d bytes, want < 1024", perMsg)
	}
}
