package rt

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/xrand"
)

func TestSubmitCommNeverReplicates(t *testing.T) {
	var runs atomic.Int32
	r := New(Config{Workers: 2, Selector: core.ReplicateAll{}})
	b := buffer.F64{0}
	r.SubmitComm("side-effect", func(ctx *Ctx) {
		runs.Add(1)
		ctx.F64(0)[0]++
	}, Inout("A", b))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("comm task body ran %d times, want exactly 1", runs.Load())
	}
	if st := r.Stats(); st.Replicated != 0 {
		t.Fatalf("comm task was replicated: %+v", st)
	}
	if b[0] != 1 {
		t.Fatalf("effect lost: %v", b[0])
	}
}

func TestSubmitCommImmuneToInjection(t *testing.T) {
	// Even a fixed-rate injector that ignores estimates must not corrupt
	// a communication task.
	inj := fault.NewFixedRate(1, 0.5, 0.5)
	r := New(Config{Workers: 1, Injector: inj})
	b := buffer.NewF64(8)
	for i := 0; i < 50; i++ {
		r.SubmitComm("c", func(ctx *Ctx) {
			ctx.F64(0)[0]++
		}, Inout("A", b))
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.UnprotectedSDC != 0 || st.UnprotectedDUE != 0 {
		t.Fatalf("comm tasks received injected faults: %+v", st)
	}
	if b[0] != 50 {
		t.Fatalf("comm chain corrupted: %v", b[0])
	}
}

func TestSubmitCommOrdersWithComputeTasks(t *testing.T) {
	// Comm tasks participate in normal dependency tracking.
	r := New(Config{Workers: 4})
	b := buffer.F64{0}
	r.Submit("w", func(ctx *Ctx) { ctx.F64(0)[0] = 5 }, Out("A", b))
	got := buffer.F64{0}
	r.SubmitComm("read", func(ctx *Ctx) { ctx.F64(1)[0] = ctx.F64(0)[0] },
		In("A", b), Out("G", got))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("comm task ran before producer: %v", got[0])
	}
}

// shutdownWithin fails the test if r.Shutdown does not return within d: a
// detached task that held its worker, or an Event that never completed its
// task, shows up as a hang.
func shutdownWithin(t *testing.T, r *Runtime, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- r.Shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("Shutdown still waiting after %v: %+v", d, r.Stats())
	}
}

// TestDetachedTaskFreesItsWorker: on a one-worker runtime, two comm tasks
// detach and hand their Events to a third task, which releases them. The
// worker takes the three in submission order, so the third runs only if a
// detached task gives its worker back when its body returns.
func TestDetachedTaskFreesItsWorker(t *testing.T) {
	r := New(Config{Workers: 1})
	events := make(chan Event, 2)
	for i := 0; i < 2; i++ {
		r.SubmitComm("wait", func(ctx *Ctx) { events <- ctx.Detach() },
			Out(fmt.Sprint("R", i), buffer.NewF64(1)))
	}
	b := buffer.NewF64(1)
	r.Submit("release", func(ctx *Ctx) {
		(<-events).Release()
		(<-events).Release()
		ctx.F64(0)[0] = 1
	}, Out("U", b))
	shutdownWithin(t, r, 10*time.Second)
	if b[0] != 1 {
		t.Fatalf("release task did not run: %v", b[0])
	}
	if st := r.Stats(); st.Completed != 3 {
		t.Fatalf("Completed = %d, want 3", st.Completed)
	}
}

// TestDetachedSuccessorWaitsForRelease: a detached task's successor stays
// gated after the body returns, and runs once the Event is released from a
// goroutine outside the runtime.
func TestDetachedSuccessorWaitsForRelease(t *testing.T) {
	r := New(Config{Workers: 2})
	events := make(chan Event, 1)
	x := buffer.NewF64(1)
	var ran atomic.Bool
	r.SubmitComm("wait", func(ctx *Ctx) {
		ctx.F64(0)[0] = 5
		events <- ctx.Detach()
	}, Out("X", x))
	r.Submit("succ", func(ctx *Ctx) {
		if ctx.F64(0)[0] != 5 {
			t.Errorf("successor read %v, want 5", ctx.F64(0)[0])
		}
		ran.Store(true)
	}, In("X", x))
	ev := <-events
	for r.Executing() != 0 || r.ReadyPending() != 0 {
		time.Sleep(time.Millisecond)
	}
	if ran.Load() || r.Stats().Completed != 0 {
		t.Fatalf("successor ran (%v) or task completed (%+v) before the release", ran.Load(), r.Stats())
	}
	ev.Release()
	shutdownWithin(t, r, 10*time.Second)
	if !ran.Load() {
		t.Fatal("successor never ran")
	}
}

// TestDetachedReleaseBeforeReturn: an Event released before its body
// returns (the message was already there) completes the task at the
// return, so a successor sees what the body wrote after the release.
// Completion is counted once whichever event comes last, also when a
// foreign goroutine's release races the body's return.
func TestDetachedReleaseBeforeReturn(t *testing.T) {
	const n = 200
	r := New(Config{Workers: 2})
	var succs atomic.Int32
	for i := 0; i < n; i++ {
		key := fmt.Sprint("X", i)
		x := buffer.NewF64(1)
		r.SubmitComm("early", func(ctx *Ctx) {
			ev := ctx.Detach()
			if i%2 == 0 {
				ev.Release()
			} else {
				go ev.Release()
			}
			ctx.F64(0)[0] = 7
		}, Out(key, x))
		r.Submit("succ", func(ctx *Ctx) {
			if ctx.F64(0)[0] != 7 {
				t.Errorf("successor read %v, want 7", ctx.F64(0)[0])
			}
			succs.Add(1)
		}, In(key, x))
	}
	shutdownWithin(t, r, 10*time.Second)
	if st := r.Stats(); st.Completed != 2*n || succs.Load() != n {
		t.Fatalf("Completed = %d, successors ran %d times; want %d and %d", st.Completed, succs.Load(), 2*n, n)
	}
}

// TestDetachMisuse: only a comm task detaches, and only once.
func TestDetachMisuse(t *testing.T) {
	r := New(Config{Workers: 1})
	panics := make(chan any, 2)
	try := func(ctx *Ctx) {
		defer func() { panics <- recover() }()
		ctx.Detach()
	}
	r.Submit("compute", try)
	r.SubmitComm("twice", func(ctx *Ctx) {
		ctx.Detach().Release()
		try(ctx)
	})
	shutdownWithin(t, r, 10*time.Second)
	for i := 0; i < 2; i++ {
		if p := <-panics; p == nil {
			t.Errorf("misuse %d did not panic", i)
		}
	}
}

// TestPropertyRandomDAGFaultTransparency: for random DAGs, a fully
// replicated run under heavy injected faults must produce exactly the same
// final state as a fault-free serial run — the replication engine's
// end-to-end guarantee.
func TestPropertyRandomDAGFaultTransparency(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		const nregions = 6
		const ntasks = 60
		type op struct {
			region int
			delta  float64
			mode   int // 0 inout, 1 write const, 2 read->noop
		}
		ops := make([]op, ntasks)
		for i := range ops {
			ops[i] = op{
				region: rng.Intn(nregions),
				delta:  float64(rng.Intn(9) + 1),
				mode:   rng.Intn(2),
			}
		}
		run := func(workers int, inj fault.Injector, sel core.Selector) []buffer.F64 {
			regions := make([]buffer.F64, nregions)
			keys := make([]string, nregions)
			for k := range regions {
				regions[k] = buffer.NewF64(64)
				keys[k] = string(rune('A' + k))
			}
			cfg := Config{Workers: workers}
			if inj != nil {
				cfg.Injector = inj
			}
			if sel != nil {
				cfg.Selector = sel
			}
			r := New(cfg)
			for _, o := range ops {
				o := o
				switch o.mode {
				case 0:
					r.Submit("add", func(ctx *Ctx) {
						x := ctx.F64(0)
						for j := range x {
							x[j] += o.delta
						}
					}, Inout(keys[o.region], regions[o.region]))
				default:
					r.Submit("set", func(ctx *Ctx) {
						x := ctx.F64(0)
						for j := range x {
							x[j] = o.delta
						}
					}, Out(keys[o.region], regions[o.region]))
				}
			}
			if err := r.Shutdown(); err != nil {
				t.Fatal(err)
			}
			return regions
		}
		want := run(1, nil, nil)
		got := run(4, fault.NewFixedRate(seed*77, 0.08, 0.08), core.ReplicateAll{})
		for k := range want {
			if !want[k].EqualTo(got[k]) {
				t.Fatalf("seed %d region %d: faulty replicated run diverged", seed, k)
			}
		}
	}
}
