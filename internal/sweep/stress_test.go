package sweep

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"appfit/internal/cluster"
	"appfit/internal/fault"
)

// TestEngineConcurrentCallersStress is the engine-level -race stress test:
// many goroutines hammer ONE engine with overlapping batches — identical
// requests racing into the singleflight window, cache hits racing misses,
// evictions racing lookups — and every response must stay bitwise equal to
// its serial cluster.Run reference. A tiny cache forces eviction churn so
// the LRU paths race too.
func TestEngineConcurrentCallersStress(t *testing.T) {
	base := fig4Requests(t, []string{"stream", "fft", "perlin"})
	// A faulty distributed request with a topology, for key and sim variety.
	job := testJob(t, "nbody", 4)
	cfg := cluster.Config{
		Nodes: 4, CoresPerNode: 4, ReplicaCores: 4,
		Replicated: cluster.All(len(job.Tasks)),
		Injector:   fault.NewFixedRate(7, 1e-2, 1e-2),
	}
	base = append(base, Request{Job: job, Config: cfg})

	want := make([]cluster.Result, len(base))
	for i, r := range base {
		res, err := cluster.Run(r.Job, r.Config)
		if err != nil {
			t.Fatalf("serial reference %d: %v", i, err)
		}
		want[i] = res
	}

	eng := New(Options{Workers: 4, CacheEntries: 4}) // smaller than the request set: evictions under fire
	const callers = 8
	var wg sync.WaitGroup
	wg.Add(callers)
	errC := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			// Each caller rotates the batch so different keys collide in
			// different orders.
			reqs := append(append([]Request(nil), base[c%len(base):]...), base[:c%len(base)]...)
			for round := 0; round < 3; round++ {
				resps, err := eng.RunBatch(context.Background(), reqs)
				if err != nil {
					errC <- err
					return
				}
				for i, resp := range resps {
					ref := want[(i+c)%len(base)]
					if !reflect.DeepEqual(resp.Result, ref) {
						t.Errorf("caller %d round %d request %d: result differs from serial reference", c, round, i)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Requests != callers*3*uint64(len(base)) {
		t.Fatalf("requests %d, want %d", st.Requests, callers*3*len(base))
	}
	if st.Entries > 4 {
		t.Fatalf("cache grew past its bound: %d entries", st.Entries)
	}
}
