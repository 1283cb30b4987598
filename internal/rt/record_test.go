package rt

import (
	"runtime"
	"testing"
	"weak"

	"appfit/internal/buffer"
	"appfit/internal/core"
)

// TestCompletedTaskPinsNoBuffer: once its task completes, a buffer belongs
// to the program alone. Each buffer's region still names its writer's node
// as last writer, one writer was taken from the global queue and one from a
// worker's deque, yet after Taskwait a collection frees both: completion
// drops the node's payload, and every taken queue slot and scratch batch is
// cleared.
func TestCompletedTaskPinsNoBuffer(t *testing.T) {
	for _, sel := range []core.Selector{core.ReplicateNone{}, core.ReplicateAll{}} {
		r := New(Config{Workers: 1, Selector: sel})
		global, deque := submitWriters(r)
		r.Taskwait()
		runtime.GC()
		if global.Value() != nil || deque.Value() != nil {
			t.Errorf("%T: a completed task still pins its buffer (from the global queue: %v, from a deque: %v)",
				sel, global.Value() != nil, deque.Value() != nil)
		}
		if err := r.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}

// submitWriters submits two writers on fresh buffers, one ready at once and
// one released onto the worker's deque by a gate task's completion, and
// returns weak pointers to their buffers.
func submitWriters(r *Runtime) (global, deque weak.Pointer[[64]float64]) {
	a, b := new([64]float64), new([64]float64)
	open := make(chan struct{})
	r.Submit("gate", func(*Ctx) { <-open }, Out("gate", nil))
	r.Submit("global", incrTask(1), Out("A", buffer.F64(a[:])))
	r.Submit("deque", incrTask(1), Out("B", buffer.F64(b[:])), In("gate", nil))
	close(open)
	return weak.Make(a), weak.Make(b)
}

// TestTaskAllocations holds a warm runtime's per-task cost on a dependence
// chain: an unreplicated task allocates its argument list, its buffer's
// interface, its record and its node; a fault-free replicated one adds the
// replica's goroutine and nothing else.
func TestTaskAllocations(t *testing.T) {
	for _, c := range []struct {
		sel  core.Selector
		want float64
	}{{core.ReplicateNone{}, 4}, {core.ReplicateAll{}, 5}} {
		r := New(Config{Workers: 2, Selector: c.sel})
		buf, fn := buffer.NewF64(256), incrTask(1)
		const tasks = 200
		chain := func() {
			for i := 0; i < tasks; i++ {
				r.Submit("incr", fn, Inout("A", buf))
			}
			r.Taskwait()
		}
		chain() // warm the buffer pool, the queues and the region table
		got := testing.AllocsPerRun(20, chain) / tasks
		t.Logf("%T: %.3f allocations a task", c.sel, got)
		if got > c.want {
			t.Errorf("%T: %.3f allocations a task, want <= %v", c.sel, got, c.want)
		}
		if err := r.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}
