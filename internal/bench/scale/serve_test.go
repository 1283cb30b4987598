package scale

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"appfit/internal/serve"
	"appfit/internal/stats"
	"appfit/internal/sweep"
)

// BenchmarkServe measures the multi-tenant service layer end to end
// (in-process, no HTTP): two tenants at weights 3:1, eight closed-loop
// submitters drawing from the fig-4 request pool against a pre-warmed
// cache, so the steady state times admission + DRR dispatch + cache hit —
// the service overhead on top of the engine, not the simulations
// themselves.
//
// It reports the two service-trajectory metrics BENCH_scale.json gates:
// req/s (sustained completions, higher is better — benchjson's "+req/s"
// gate inverts the regression direction) and p99/op (99th-percentile
// end-to-end request latency in ns, gated like ns/op).
func BenchmarkServe(b *testing.B) {
	pool := sweepBatch(b)

	b.Run("tenants=2", func(b *testing.B) {
		srv, err := serve.New(serve.Options{
			Tenants: []serve.TenantConfig{
				{Name: "heavy", Weight: 3, QueueCap: 1 << 20},
				{Name: "light", Weight: 1, QueueCap: 1 << 20},
			},
			Workers: runtime.GOMAXPROCS(0),
		})
		if err != nil {
			b.Fatal(err)
		}
		// Warm the server's cache with the whole pool before timing.
		warm, err := srv.Submit(context.Background(), "heavy", pool)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range warm {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}

		const submitters = 8
		var next atomic.Int64
		latencies := make([][]float64, submitters)
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Even submitters drive the heavy tenant, odd the light
				// one: both sides stay backlogged, so the 3:1 weights are
				// actually exercised by the scheduler.
				tenant := "heavy"
				if g%2 == 1 {
					tenant = "light"
				}
				for {
					i := next.Add(1) - 1
					if i >= int64(b.N) {
						return
					}
					req := pool[i%int64(len(pool))]
					t0 := time.Now()
					if _, err := srv.Submit(context.Background(), tenant, []sweep.Request{req}); err != nil {
						b.Error(err)
						return
					}
					latencies[g] = append(latencies[g], float64(time.Since(t0)))
				}
			}(g)
		}
		wg.Wait()
		elapsed := b.Elapsed()
		b.StopTimer()

		var all []float64
		for _, ls := range latencies {
			all = append(all, ls...)
		}
		if elapsed > 0 {
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
		}
		b.ReportMetric(stats.Percentile(all, 99), "p99/op")
		st := srv.Stats()
		b.ReportMetric(st.Engine.HitRate(), "hit%")
		if err := st.Accounting(); err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			b.Fatal(err)
		}
	})
}
