package dist

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/rt"
)

func TestSendRecvDelivers(t *testing.T) {
	w := NewWorld(Config{Ranks: 2})
	src := buffer.F64{42}
	dst := buffer.NewF64(1)
	w.Comm().Rank(0).Send(1, 0, "s", src)
	w.Comm().Rank(1).Recv(0, 0, "d", dst)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 42 {
		t.Fatalf("dst = %v, want 42", dst[0])
	}
	if got := w.MessagesSent(); got != 1 {
		t.Fatalf("MessagesSent = %d, want 1", got)
	}
}

func TestSendSnapshotsAtExecution(t *testing.T) {
	// The payload is the buffer's contents when the send task fires (after
	// its dependencies), not when Send was called or when Recv runs.
	w := NewWorld(Config{Ranks: 2})
	a := buffer.NewF64(1)
	dst := buffer.NewF64(1)
	w.Comm().Rank(0).Runtime().Submit("set", func(ctx *rt.Ctx) { ctx.F64(0)[0] = 7 },
		rt.Out("a", a))
	w.Comm().Rank(0).Send(1, 0, "a", a)
	// This write is ordered after the send's In access; it must not leak
	// into the message even though it may run long before the Recv matches.
	w.Comm().Rank(0).Runtime().Submit("clobber", func(ctx *rt.Ctx) { ctx.F64(0)[0] = -1 },
		rt.Out("a", a))
	w.Comm().Rank(1).Recv(0, 0, "d", dst)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 7 {
		t.Fatalf("dst = %v, want the snapshot 7", dst[0])
	}
}

func TestRendezvousFIFOOrdering(t *testing.T) {
	// Several messages on the same (src, dst, tag) mailbox must deliver in
	// send order.
	const k = 16
	w := NewWorld(Config{Ranks: 2, RT: func(int) rt.Config { return rt.Config{Workers: 2} }})
	a := buffer.NewF64(1)
	d := buffer.NewF64(1)
	res := buffer.NewF64(k)
	for i := 0; i < k; i++ {
		v := float64(i)
		w.Comm().Rank(0).Runtime().Submit("set", func(ctx *rt.Ctx) { ctx.F64(0)[0] = v },
			rt.Out("a", a))
		w.Comm().Rank(0).Send(1, 0, "a", a)
		w.Comm().Rank(1).Recv(0, 0, "d", d)
		i := i
		w.Comm().Rank(1).Runtime().Submit("log", func(ctx *rt.Ctx) { ctx.F64(1)[i] = ctx.F64(0)[0] },
			rt.In("d", d), rt.Inout("res", res))
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i] != float64(i) {
			t.Fatalf("res = %v: message %d out of order", res, i)
		}
	}
}

func TestTagMatching(t *testing.T) {
	// A Recv picks the message with its tag even if another tag's message
	// was sent first.
	w := NewWorld(Config{Ranks: 2})
	a1 := buffer.F64{1}
	a2 := buffer.F64{2}
	d5 := buffer.NewF64(1)
	d9 := buffer.NewF64(1)
	w.Comm().Rank(0).Send(1, 5, "a1", a1)
	w.Comm().Rank(0).Send(1, 9, "a2", a2)
	w.Comm().Rank(1).Recv(0, 9, "d9", d9)
	w.Comm().Rank(1).Recv(0, 5, "d5", d5)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if d9[0] != 2 || d5[0] != 1 {
		t.Fatalf("tag matching failed: d9=%v d5=%v", d9[0], d5[0])
	}
}

func TestSelfSend(t *testing.T) {
	w := NewWorld(Config{Ranks: 1, RT: func(int) rt.Config { return rt.Config{Workers: 2} }})
	a := buffer.F64{3}
	d := buffer.NewF64(1)
	w.Comm().Rank(0).Send(0, 0, "a", a)
	w.Comm().Rank(0).Recv(0, 0, "d", d)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if d[0] != 3 {
		t.Fatalf("self-send lost: %v", d[0])
	}
}

func TestCommNeverReplicatedNorInjected(t *testing.T) {
	// Mirror of internal/rt's comm tests at the World level: under complete
	// replication and an aggressive injector, every message is sent exactly
	// once and arrives uncorrupted; only compute tasks replicate.
	const iters = 10
	w := NewWorld(Config{Ranks: 2, RT: func(rank int) rt.Config {
		return rt.Config{
			Workers:  2,
			Selector: core.ReplicateAll{},
			Injector: fault.NewFixedRate(uint64(rank)+1, 0.2, 0.2),
		}
	}})
	local := []buffer.F64{buffer.NewF64(8), buffer.NewF64(8)}
	remote := []buffer.F64{buffer.NewF64(8), buffer.NewF64(8)}
	for it := 0; it < iters; it++ {
		for rk := 0; rk < 2; rk++ {
			w.Comm().Rank(rk).Runtime().Submit("inc", func(ctx *rt.Ctx) {
				x := ctx.F64(0)
				for i := range x {
					x[i]++
				}
			}, rt.Inout("local", local[rk]))
			w.Comm().Rank(rk).Send(1-rk, it, "local", local[rk])
			w.Comm().Rank(rk).Recv(1-rk, it, "remote", remote[rk])
		}
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := w.MessagesSent(); got != 2*iters {
		t.Fatalf("MessagesSent = %d, want %d (a replicated or re-executed comm task would inflate this)", got, 2*iters)
	}
	for rk := 0; rk < 2; rk++ {
		st := w.Comm().Rank(rk).Runtime().Stats()
		if st.Replicated != iters {
			t.Fatalf("rank %d replicated %d tasks, want exactly the %d compute tasks", rk, st.Replicated, iters)
		}
		if remote[rk][0] != iters {
			t.Fatalf("rank %d received corrupted final block: %v", rk, remote[rk][0])
		}
	}
	if d, ok := w.tr.(*Direct); ok {
		if p := d.Pending(); p != 0 {
			t.Fatalf("%d messages never received", p)
		}
	}
}

func TestMessagesSentAccounting(t *testing.T) {
	const ranks, rounds = 4, 5
	w := NewWorld(Config{Ranks: ranks})
	bufs := make([]buffer.F64, ranks)
	in := make([]buffer.F64, ranks)
	for i := range bufs {
		bufs[i] = buffer.F64{float64(i)}
		in[i] = buffer.NewF64(1)
	}
	for round := 0; round < rounds; round++ {
		for rk := 0; rk < ranks; rk++ {
			next := (rk + 1) % ranks
			w.Comm().Rank(rk).Send(next, round, "b", bufs[rk])
			w.Comm().Rank(next).Recv(rk, round, "in", in[next])
		}
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := w.MessagesSent(); got != ranks*rounds {
		t.Fatalf("MessagesSent = %d, want %d", got, ranks*rounds)
	}
	if st := w.Stats(); st.Completed != ranks*rounds*2 {
		t.Fatalf("aggregate Completed = %d, want %d", st.Completed, ranks*rounds*2)
	}
}

func TestShutdownPropagatesRankError(t *testing.T) {
	// Rank 1's runtime fails a majority vote: a nondeterministic body under
	// complete replication never produces two agreeing results.
	w := NewWorld(Config{Ranks: 2, RT: func(rank int) rt.Config {
		if rank == 1 {
			return rt.Config{Workers: 2, Selector: core.ReplicateAll{}}
		}
		return rt.Config{}
	}})
	var n atomic.Int64
	b := buffer.NewF64(1)
	w.Comm().Rank(1).Runtime().Submit("nondet", func(ctx *rt.Ctx) {
		ctx.F64(0)[0] = float64(n.Add(1))
	}, rt.Inout("x", b))
	w.Comm().Rank(0).Runtime().Submit("fine", func(ctx *rt.Ctx) { ctx.F64(0)[0] = 1 },
		rt.Out("y", buffer.NewF64(1)))
	err := w.Shutdown()
	if err == nil {
		t.Fatal("Shutdown returned nil, want rank 1's vote failure")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error does not name the failing rank: %v", err)
	}
}

func TestShutdownPropagatesRecvMismatch(t *testing.T) {
	// A payload that cannot be copied into the receive buffer (length
	// mismatch) is a World error, reported at Shutdown.
	w := NewWorld(Config{Ranks: 2})
	w.Comm().Rank(0).Send(1, 0, "s", buffer.F64{1})
	w.Comm().Rank(1).Recv(0, 0, "d", buffer.NewF64(2))
	err := w.Shutdown()
	if err == nil {
		t.Fatal("Shutdown returned nil, want a copy mismatch error")
	}
	if !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "length mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestShutdownDanglingRecvReportsDeadlock(t *testing.T) {
	// A receive with no matching send must not hang Shutdown: the watchdog
	// detects that no rank can progress except through a match that will
	// never come, closes the transport, and the receive errors out.
	w := NewWorld(Config{Ranks: 2})
	w.Comm().Rank(0).Recv(1, 0, "d", buffer.NewF64(1))
	err := w.Shutdown()
	if err == nil {
		t.Fatal("Shutdown returned nil for a dangling receive")
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("error does not wrap ErrClosed: %v", err)
	}
	if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("unexpected error: %v", err)
	}

	// A two-rank receive cycle: each rank's send is gated behind its own
	// receive. Both receives are named by their Match, and Shutdown returns.
	w = NewWorld(Config{Ranks: 2})
	for rk := 0; rk < 2; rk++ {
		b := buffer.NewF64(1)
		w.Comm().Rank(rk).Recv(1-rk, 3, "in", b)
		w.Comm().Rank(rk).Send(1-rk, 3, "in", b)
	}
	done := make(chan error, 1)
	go func() { done <- w.Shutdown() }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown hangs on a receive cycle")
	}
	if !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "2 posted receive(s)") {
		t.Fatalf("unexpected error: %v", err)
	}
	for rk := 0; rk < 2; rk++ {
		m := fmt.Sprintf("%+v", Match{Src: 1 - rk, Dst: rk, Class: ClassP2P, Tag: 3})
		if !strings.Contains(err.Error(), m) {
			t.Errorf("error does not name rank %d's receive %s: %v", rk, m, err)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	w := NewWorld(Config{})
	if len(w.ranks) != 1 {
		t.Fatalf("Size = %d, want 1", len(w.ranks))
	}
	b := buffer.NewF64(1)
	w.Comm().Rank(0).Runtime().Submit("t", func(ctx *rt.Ctx) { ctx.F64(0)[0] = 1 }, rt.Out("a", b))
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatalf("second Shutdown not idempotent: %v", err)
	}
	if b[0] != 1 {
		t.Fatal("task did not run")
	}
}

// TestHaloExchangeMatchesSerial is the 4-rank integration test: a 1D ring
// stencil where each rank owns a block and exchanges boundary cells with
// both neighbors every iteration, run with complete replication under
// injected faults. The distributed result must be bitwise identical to a
// serial single-array computation.
func TestHaloExchangeMatchesSerial(t *testing.T) {
	const (
		ranks = 4
		n     = 32 // cells per rank
		iters = 6
	)
	// Serial reference on the global ring.
	global := make([]float64, ranks*n)
	for i := range global {
		global[i] = float64(i % 7)
	}
	next := make([]float64, len(global))
	for it := 0; it < iters; it++ {
		for g := range global {
			l := global[(g-1+len(global))%len(global)]
			r := global[(g+1)%len(global)]
			next[g] = 0.25*l + 0.5*global[g] + 0.25*r
		}
		copy(global, next)
	}

	w := NewWorld(Config{Ranks: ranks, RT: func(rank int) rt.Config {
		return rt.Config{
			Workers:  2,
			Selector: core.ReplicateAll{},
			Injector: fault.NewFixedRate(uint64(rank)*13+1, 0.05, 0.05),
		}
	}})
	v := make([]buffer.F64, ranks)
	bl := make([]buffer.F64, ranks) // boundary going to the left neighbor
	br := make([]buffer.F64, ranks) // boundary going to the right neighbor
	gl := make([]buffer.F64, ranks) // ghost from the left neighbor
	gr := make([]buffer.F64, ranks) // ghost from the right neighbor
	for rk := 0; rk < ranks; rk++ {
		v[rk] = buffer.NewF64(n)
		for i := range v[rk] {
			v[rk][i] = float64((rk*n + i) % 7)
		}
		bl[rk], br[rk] = buffer.NewF64(1), buffer.NewF64(1)
		gl[rk], gr[rk] = buffer.NewF64(1), buffer.NewF64(1)
	}
	for it := 0; it < iters; it++ {
		for rk := 0; rk < ranks; rk++ {
			left := (rk + ranks - 1) % ranks
			right := (rk + 1) % ranks
			w.Comm().Rank(rk).Runtime().Submit("pack", func(ctx *rt.Ctx) {
				ctx.F64(1)[0] = ctx.F64(0)[0]
				ctx.F64(2)[0] = ctx.F64(0)[n-1]
			}, rt.In("v", v[rk]), rt.Out("bl", bl[rk]), rt.Out("br", br[rk]))
			w.Comm().Rank(rk).Send(left, it, "bl", bl[rk])
			w.Comm().Rank(rk).Send(right, it, "br", br[rk])
			w.Comm().Rank(rk).Recv(left, it, "gl", gl[rk])
			w.Comm().Rank(rk).Recv(right, it, "gr", gr[rk])
			w.Comm().Rank(rk).Runtime().Submit("stencil", func(ctx *rt.Ctx) {
				x := ctx.F64(0)
				l0 := ctx.F64(1)[0]
				r0 := ctx.F64(2)[0]
				out := make([]float64, len(x))
				for i := range x {
					lv := l0
					if i > 0 {
						lv = x[i-1]
					}
					rv := r0
					if i < len(x)-1 {
						rv = x[i+1]
					}
					out[i] = 0.25*lv + 0.5*x[i] + 0.25*rv
				}
				copy(x, out)
			}, rt.Inout("v", v[rk]), rt.In("gl", gl[rk]), rt.In("gr", gr[rk]))
		}
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got, want := w.MessagesSent(), uint64(ranks*2*iters); got != want {
		t.Fatalf("MessagesSent = %d, want %d", got, want)
	}
	for rk := 0; rk < ranks; rk++ {
		for i := 0; i < n; i++ {
			if want := global[rk*n+i]; v[rk][i] != want {
				t.Fatalf("rank %d cell %d = %v, want %v (diverged from serial)", rk, i, v[rk][i], want)
			}
		}
	}
}

// worldErr returns the joined communication errors w has recorded so far.
func worldErr(w *World) error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return errors.Join(w.errs...)
}
