package scale

import (
	"testing"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/rt"
)

// BenchmarkRtReplicate is the replication engine's record on the real
// runtime. allocs/op and B/op are the gated units: every copy the Figure-2
// engine makes is a lease from the runtime's buffer.Pool, so B/op has no
// term in the bytes a task's attempts copy, and what
// allocs/op counts is Submit, deps and sched — the cost an unreplicated
// task pays too — plus the replica's goroutine.
//
//   - stream-small, cholesky-small: a whole Table-I DAG per iteration,
//     built on a fresh two-worker runtime under ReplicateAll, drained and
//     verified — the rt-replicate workload's round, one bench at a time and
//     fault-free.
//   - throughput-unreplicated, throughput-replicated: one submit+execute of
//     a 2 KB inout task on a long-lived four-worker runtime; their
//     difference is what replicating a task costs once the pool is warm.
//   - recovery-sdc: the same, with an SDC in every task's primary — compare,
//     restore, re-execute, vote (the whole Figure 2 sequence) on an 8 KB
//     task. The runtime is long-lived here too, so the row is the per-task
//     cost alone, not a runtime's start-up.
func BenchmarkRtReplicate(b *testing.B) {
	for _, name := range []string{"stream", "cholesky"} {
		w, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"-small", func(b *testing.B) {
			b.ReportAllocs()
			var tasks uint64
			for i := 0; i < b.N; i++ {
				r := rt.New(rt.Config{Workers: 2, Selector: core.ReplicateAll{}})
				verify := w.BuildRT(r, workload.Small)
				if err := r.Shutdown(); err != nil {
					b.Fatal(err)
				}
				if err := verify(); err != nil {
					b.Fatal(err)
				}
				tasks = r.Stats().Completed
			}
			b.ReportMetric(float64(tasks), "tasks/op")
		})
	}

	incr := func(ctx *rt.Ctx) {
		x := ctx.F64(0)
		for j := range x {
			x[j]++
		}
	}
	for _, c := range []struct {
		name  string
		cfg   rt.Config
		elems int
	}{
		{"throughput-unreplicated", rt.Config{Workers: 4}, 256},
		{"throughput-replicated", rt.Config{Workers: 4, Selector: core.ReplicateAll{}}, 256},
		{"recovery-sdc", rt.Config{Workers: 2, Selector: core.ReplicateAll{}, Injector: primarySDC{}}, 1024},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			r := rt.New(c.cfg)
			buf := buffer.NewF64(c.elems)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Submit("w", incr, rt.Inout("A", buf))
			}
			if err := r.Shutdown(); err != nil {
				b.Fatal(err)
			}
			if st := r.Stats(); c.cfg.Injector != nil && st.SDCRecovered != uint64(b.N) {
				b.Fatalf("recovered %d SDCs in %d tasks", st.SDCRecovered, b.N)
			}
			b.ReportMetric(1, "tasks/op")
		})
	}
}

// primarySDC corrupts bit 9 of every task's primary execution and nothing
// else.
type primarySDC struct{}

func (primarySDC) Draw(_ uint64, attempt int, _, _ float64) fault.Outcome {
	if attempt == 0 {
		return fault.SDC
	}
	return fault.None
}

func (primarySDC) BitIndex(uint64, int, int64) int64 { return 9 }
