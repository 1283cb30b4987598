package scale

import (
	"context"
	"runtime"
	"testing"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/experiments"
	"appfit/internal/sweep"
)

// sweepBatch is the canonical fig-4-class sweep (per benchmark: base,
// complete replication, App_FIT-selective) the engine is measured against,
// at small scale — the figure's real request size, where a simulation
// costs far more than its cache key.
func sweepBatch(b *testing.B) []sweep.Request {
	b.Helper()
	return experiments.Fig4Requests(workload.Small, bench.All())
}

// repeatBatch duplicates the batch n times — the shape of real sweep
// traffic, where figure reruns and overlapping parameter grids resubmit
// the same (job, config) points.
func repeatBatch(reqs []sweep.Request, n int) []sweep.Request {
	out := make([]sweep.Request, 0, len(reqs)*n)
	for i := 0; i < n; i++ {
		out = append(out, reqs...)
	}
	return out
}

// runSerial is the pre-engine reference: a bare cluster.Run loop.
func runSerial(b *testing.B, reqs []sweep.Request) {
	b.Helper()
	for _, r := range reqs {
		if _, err := cluster.Run(r.Job, r.Config); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep measures the sweep engine against the serial loop it
// replaced, on the fig-4-class batch (27 unique simulations at small
// scale). Three axes, each against its own serial reference:
//
//   - unique/*: every request distinct — pure worker-pool parallelism.
//     On a single-CPU host engine ≈ serial (the pool can only pipeline);
//     the gap is the multicore headroom.
//   - repeat8/*: the batch resubmitted 8× — the engine coalesces and
//     memoizes, simulating each unique point once, so runs/op collapses
//     8× and wall time follows regardless of core count.
//   - warm: the whole batch answered from a pre-warmed cache (hit% 100) —
//     the figure-rerun case.
//   - hit: one warm RunRequest of a prepared, completely replicated job —
//     the service's per-request floor. Its allocs/op is the deterministic
//     form of "a cache hit costs O(config), not O(tasks)".
//
// runs/op counts simulations actually executed per iteration and hit% the
// cache hit rate; benchjson records both, gates neither (hit% is -info).
func BenchmarkSweep(b *testing.B) {
	base := sweepBatch(b)
	rep := repeatBatch(base, 8)

	b.Run("unique/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSerial(b, base)
		}
		b.ReportMetric(float64(len(base)), "runs/op")
	})
	b.Run("unique/engine", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		var last sweep.Stats
		for i := 0; i < b.N; i++ {
			// A fresh engine with the cache disabled: nothing carries over,
			// so this times the pool alone on cold unique work.
			eng := sweep.New(sweep.Options{Workers: workers, CacheEntries: -1})
			if _, err := eng.RunBatch(context.Background(), base); err != nil {
				b.Fatal(err)
			}
			last = eng.Stats()
		}
		b.ReportMetric(float64(last.Misses+last.Uncacheable), "runs/op")
		b.ReportMetric(last.HitRate(), "hit%")
	})
	b.Run("repeat8/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSerial(b, rep)
		}
		b.ReportMetric(float64(len(rep)), "runs/op")
	})
	b.Run("repeat8/engine", func(b *testing.B) {
		var last sweep.Stats
		for i := 0; i < b.N; i++ {
			eng := sweep.New(sweep.Options{})
			if _, err := eng.RunBatch(context.Background(), rep); err != nil {
				b.Fatal(err)
			}
			last = eng.Stats()
		}
		b.ReportMetric(float64(last.Misses+last.Uncacheable), "runs/op")
		b.ReportMetric(last.HitRate(), "hit%")
	})
	b.Run("warm", func(b *testing.B) {
		eng := sweep.New(sweep.Options{})
		if _, err := eng.RunBatch(context.Background(), base); err != nil {
			b.Fatal(err)
		}
		before := eng.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunBatch(context.Background(), base); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := eng.Stats()
		b.ReportMetric(float64(st.Misses+st.Uncacheable-before.Misses-before.Uncacheable)/float64(b.N), "runs/op")
		b.ReportMetric(100*float64(st.Hits-before.Hits)/float64(st.Requests-before.Requests), "hit%")
	})
	b.Run("hit", func(b *testing.B) {
		eng := sweep.New(sweep.Options{})
		ctx := context.Background()
		req := base[1] // the first benchmark's complete-replication run
		if resp := eng.RunRequest(ctx, req); resp.Err != nil {
			b.Fatal(resp.Err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := eng.RunRequest(ctx, req); !resp.Metrics.CacheHit {
				b.Fatal("warm request missed the cache")
			}
		}
	})
}
