package rt

import (
	"errors"
	"runtime"
	"testing"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/trace"
	"appfit/internal/vote"
)

// wantBalanced fails unless every buffer r's pool handed out has come back
// and n of them were handed out.
func wantBalanced(t *testing.T, r *Runtime, n uint64) {
	t.Helper()
	st := r.Stats().Pool
	if st.Leases != st.Returns {
		t.Fatalf("pool out of balance: %d leased, %d returned", st.Leases, st.Returns)
	}
	if st.Leases != n {
		t.Fatalf("pool leased %d buffers, want %d", st.Leases, n)
	}
}

// TestLeaseBalance drives one replicated task — In("S"), Inout("A"),
// Out("D") — down every path of the Figure-2 engine and checks the books:
// the result is right, and every lease (a private A and D for each attempt,
// re-executions included; S is only read, so every attempt reads the real
// one) went back to the pool exactly once.
func TestLeaseBalance(t *testing.T) {
	script := fault.NewScript
	persistentSDC := script()
	for att := 0; att < vote.MaxAttempts; att++ {
		persistentSDC.Set(2, att, fault.SDC).SetBit(2, att, int64(att))
	}
	for _, c := range []struct {
		name   string
		inj    fault.Injector
		reexec uint64
		fails  bool // Shutdown reports an error; the real buffers keep their inputs
	}{
		{name: "clean pair"},
		{name: "SDC in primary", inj: script().Set(2, 0, fault.SDC).SetBit(2, 0, 70), reexec: 1},
		{name: "SDC in replica", inj: script().Set(2, 1, fault.SDC).SetBit(2, 1, 3), reexec: 1},
		{name: "two SDCs", inj: script().Set(2, 0, fault.SDC).SetBit(2, 0, 3).Set(2, 2, fault.SDC).SetBit(2, 2, 7), reexec: 2},
		{name: "DUE in primary", inj: script().Set(2, 0, fault.DUE), reexec: 1},
		{name: "DUE in replica", inj: script().Set(2, 1, fault.DUE), reexec: 1},
		{name: "double DUE", inj: script().Set(2, 0, fault.DUE).Set(2, 1, fault.DUE), reexec: 2},
		{name: "vote failure", inj: persistentSDC, reexec: 6, fails: true},
		{name: "SDC in replica bit 9", inj: script().Set(2, 1, fault.SDC).SetBit(2, 1, 9), reexec: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := New(Config{Workers: 2, Selector: core.ReplicateAll{}, Injector: c.inj})
			src, acc, dst := buffer.F64{1, 2, 3}, buffer.F64{10, 20, 30}, buffer.NewF64(3)
			r.Submit("fill", func(ctx *Ctx) { copy(ctx.F64(0), []float64{1, 2, 3}) }, Out("S", src))
			r.Submit("axpy", func(ctx *Ctx) {
				s, a, d := ctx.F64(0), ctx.F64(1), ctx.F64(2)
				for i := range a {
					a[i] += s[i]
					d[i] = 2 * a[i]
				}
			}, In("S", src), Inout("A", acc), Out("D", dst))
			err := r.Shutdown()
			wantAcc, wantDst := buffer.F64{11, 22, 33}, buffer.F64{22, 44, 66}
			if c.fails {
				if !errors.As(err, new(vote.ErrNoMajority)) {
					t.Fatalf("Shutdown = %v, want a no-majority error", err)
				}
				wantAcc, wantDst = buffer.F64{10, 20, 30}, buffer.NewF64(3)
			} else if err != nil {
				t.Fatal(err)
			}
			if !acc.EqualTo(wantAcc) || !dst.EqualTo(wantDst) {
				t.Fatalf("acc = %v, dst = %v; want %v, %v", acc, dst, wantAcc, wantDst)
			}
			if got := r.Stats().Reexecutions; got != c.reexec {
				t.Fatalf("%d re-executions, want %d", got, c.reexec)
			}
			fill := uint64(2) // a private S for each attempt
			axpy := 2 * (2 + c.reexec)
			wantBalanced(t, r, fill+axpy)
		})
	}
}

// TestLeaseBalanceStorm is TestSeededFaultStorm's storm with the books
// checked: 200 tasks on four workers under 15 % DUE + 15 % SDC.
func TestLeaseBalanceStorm(t *testing.T) {
	a := buffer.NewF64(256)
	const n = 200
	r := New(Config{Workers: 4, Selector: core.ReplicateAll{}, Injector: NewStormInjector(99, 0.15, 0.15)})
	for i := 0; i < n; i++ {
		r.Submit("inc", incrTask(1), Inout("A", a))
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != n {
			t.Fatalf("a[%d] = %v, want %d", i, a[i], n)
		}
	}
	st := r.Stats()
	if st.Reexecutions == 0 {
		t.Fatal("storm injected nothing — test is vacuous")
	}
	wantBalanced(t, r, 2*n+st.Reexecutions)
	if st.Pool.Hits == 0 {
		t.Fatal("200 same-shape tasks never reused a buffer")
	}
}

// TestNilTokenArgument: an argument without a buffer is a pure ordering
// token. Declared writable, it used to reach the comparator as a nil output
// and panic; the access plan leaves it out of compare, injection and adopt.
func TestNilTokenArgument(t *testing.T) {
	for _, c := range []struct {
		name string
		inj  func() *fault.Script
	}{
		{name: "fault-free", inj: fault.NewScript},
		{name: "SDC", inj: func() *fault.Script { return fault.NewScript().Set(1, 0, fault.SDC).SetBit(1, 0, 77) }},
		{name: "DUE", inj: func() *fault.Script { return fault.NewScript().Set(1, 1, fault.DUE) }},
	} {
		for _, tokenFirst := range []bool{true, false} {
			name := c.name + "/token last"
			if tokenFirst {
				name = c.name + "/token first"
			}
			t.Run(name, func(t *testing.T) {
				r := New(Config{Workers: 2, Selector: core.ReplicateAll{}, Injector: c.inj()})
				d := buffer.F64{1, 2, 3}
				data, at := Inout("A", d), 0
				args := []Arg{data, Out("tok", nil)}
				if tokenFirst {
					args, at = []Arg{Out("tok", nil), data}, 1
				}
				r.Submit("k", func(ctx *Ctx) {
					if ctx.Buf(1-at) != nil {
						t.Error("token argument grew a buffer")
					}
					x := ctx.F64(at)
					for i := range x {
						x[i] *= 2
					}
				}, args...)
				// The token still orders: this reader runs after k.
				seen := buffer.NewF64(1)
				r.Submit("after", func(ctx *Ctx) { ctx.F64(1)[0] = d[0] }, In("tok", nil), Out("seen", seen))
				if err := r.Shutdown(); err != nil {
					t.Fatal(err)
				}
				if want := (buffer.F64{2, 4, 6}); !d.EqualTo(want) {
					t.Fatalf("d = %v, want %v", d, want)
				}
				if seen[0] != 2 {
					t.Fatalf("token did not order its reader: saw %v", seen[0])
				}
			})
		}
	}
}

// TestReplicationAllocatesNoBuffers: once the pool is warm a fault-free
// replicated task allocates nothing the size of its arguments. Twice the
// tasks must cost well under 1 KB more each, on 32 KB arguments (cloning
// cost ~98 KB each).
func TestReplicationAllocatesNoBuffers(t *testing.T) {
	bufs := make([]buffer.F64, 4)
	keys := []string{"A", "B", "C", "D"}
	for i := range bufs {
		bufs[i] = buffer.NewF64(4096)
	}
	allocated := func(tasks int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := New(Config{Workers: 2, Selector: core.ReplicateAll{}})
		for i := 0; i < tasks; i++ {
			r.Submit("incr", incrTask(1), Inout(keys[i%4], bufs[i%4]))
		}
		if err := r.Shutdown(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if st := r.Stats(); st.Replicated != uint64(tasks) {
			t.Fatalf("replicated %d of %d tasks", st.Replicated, tasks)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(100) // warm the runtime's own lazily built state
	one, two := allocated(1000), allocated(2000)
	if perTask := (int64(two) - int64(one)) / 1000; perTask >= 1024 {
		t.Fatalf("each extra replicated task allocates %d bytes, want < 1024", perTask)
	}
}

// TestNewOnSharesOnePool: two runtimes started on one pool draw from the
// same books — the second reuses what the first returned, everything comes
// back — and neither reports the pool's traffic as its own, so summing them
// (dist.World.Stats) counts no lease twice.
func TestNewOnSharesOnePool(t *testing.T) {
	shared := buffer.NewPool()
	shared.Poison()
	a := buffer.NewF64(64)
	for round := 1; round <= 2; round++ {
		r := NewOn(shared, Config{Workers: 2, Selector: core.ReplicateAll{}})
		for i := 0; i < 10; i++ {
			r.Submit("inc", incrTask(1), Inout("A", a))
		}
		if err := r.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.Pool != (buffer.PoolStats{}) || st.Replicated != 10 {
			t.Fatalf("round %d: Stats = %+v, want 10 replicated tasks and no pool traffic of its own", round, st)
		}
		st := shared.Stats()
		if st.Leases != uint64(20*round) || st.Returns != st.Leases {
			t.Fatalf("round %d: shared pool = %+v, want %d leases, all returned", round, st, 20*round)
		}
		if round == 2 && st.Hits < 20 {
			t.Fatalf("the second runtime found the pool cold: %+v", st)
		}
	}
	if a[0] != 20 {
		t.Fatalf("a[0] = %v, want 20", a[0])
	}
}

// TestBodyScratchKeepsNoBuffer: once an unreplicated body returns, its
// worker's scratch keeps nothing of the body it served.
func TestBodyScratchKeepsNoBuffer(t *testing.T) {
	r := New(Config{Workers: 1})
	defer r.Shutdown()
	var own bodyScratch
	var rec trace.Record
	task := &task{id: 1, fn: func(*Ctx) {}, args: []Arg{In("x", buffer.NewF64(1)), Out("y", buffer.NewF64(1))}, comm: true}
	r.executeUnprotected(task, &own, &rec)
	if own.ctx.bufs != nil || cap(own.bufs) < 2 || own.bufs[:2][0] != nil || own.bufs[:2][1] != nil {
		t.Fatalf("scratch still holds its last body's buffers: %+v", own)
	}
}
