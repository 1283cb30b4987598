package sweep

import (
	"context"
	"encoding/hex"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"appfit/internal/cluster"
	"appfit/internal/fault"
	"appfit/internal/simnet"
)

// TestPreparedKeyMatchesRunKey: for random jobs × configs a prepared
// request derives exactly the key RunKey derives by value — the digest
// spliced from the Prepared is the digest of the tasks.
func TestPreparedKeyMatchesRunKey(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		job, cfg := genJobConfig(r)
		want, wantOK := RunKey(job, cfg)
		got, gotOK := Prepare(job).Request(cfg).key()
		return wantOK && gotOK && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	job := testJob(t, "stream", 1)
	if _, ok := Prepare(job).Request(cluster.Config{Injector: &opaqueInjector{}}).key(); ok {
		t.Fatal("a prepared job must not make an opaque injector cacheable")
	}
}

// TestRunKeyGolden pins the encoding: the key of a fixed request, bare and
// prepared, is one constant, so a refactor of the encoder cannot silently
// re-address the cache. Removing a Config field removes its bytes from the
// encoding and changes this constant; any other deliberate encoding change
// bumps the 'R','1','J' version and this constant together.
func TestRunKeyGolden(t *testing.T) {
	job := cluster.Job{Name: "golden", Tasks: []cluster.Task{
		{Label: "potrf", Cost: 1000, ArgBytes: 512},
		{Label: "trsm", Node: 1, Cost: 2000, ArgBytes: 512, OutBytes: 256, Deps: []int{0}},
		{Label: "gemm", Cost: 3000, ArgBytes: 1024, Deps: []int{1, 0}, DepBytes: []int64{64, 128}},
	}}
	cfg := cluster.Config{Nodes: 2, CoresPerNode: 4, ReplicaCores: 2,
		Replicated: []bool{true, false, true}, Injector: fault.NewFixedRate(42, 1e-3, 2e-3)}
	const want = "46f51fe2a22ba50fa4b13a4fbe6437d5b9922d63379585f96ed6bed32aa05cad"
	bare, _ := RunKey(job, cfg)
	prepared, _ := Prepare(job).Request(cfg).key()
	if got := hex.EncodeToString(bare[:]); got != want {
		t.Fatalf("RunKey = %s, want %s", got, want)
	}
	if prepared != bare {
		t.Fatalf("prepared key %x differs from RunKey %x", prepared, bare)
	}
}

// TestPreparedStaleDigestFallsBack: a request whose Job.Tasks was re-pointed
// after p.Request must key as the tasks it now carries, never as the job
// Prepare hashed — for another array, for a shorter view of the same array
// and for an equal-length copy — and the engine must miss on it.
func TestPreparedStaleDigestFallsBack(t *testing.T) {
	a, b := testJob(t, "stream", 1), testJob(t, "fft", 1)
	cfg := cluster.Config{Nodes: 1, CoresPerNode: 4}
	p := Prepare(a)
	copied := append([]cluster.Task(nil), a.Tasks...)
	copied[0].Cost++
	for name, tasks := range map[string][]cluster.Task{
		"other job": b.Tasks, "prefix": a.Tasks[:len(a.Tasks)-1], "edited copy": copied, "empty": nil,
	} {
		req := p.Request(cfg)
		req.Job.Tasks = tasks
		got, _ := req.key()
		if want, _ := RunKey(req.Job, cfg); got != want {
			t.Fatalf("%s: re-pointed request keyed %x, RunKey of what it carries is %x", name, got, want)
		}
		if fresh, _ := p.Request(cfg).key(); got == fresh {
			t.Fatalf("%s: re-pointed request kept the prepared job's key", name)
		}
	}

	eng := New(Options{})
	if resp := eng.RunRequest(context.Background(), p.Request(cfg)); resp.Err != nil || resp.Metrics.CacheHit {
		t.Fatalf("cold request: err %v hit %v", resp.Err, resp.Metrics.CacheHit)
	}
	req := p.Request(cfg)
	req.Job.Tasks = b.Tasks
	resp := eng.RunRequest(context.Background(), req)
	want, err := cluster.Run(req.Job, cfg)
	if err != nil || resp.Err != nil {
		t.Fatal(err, resp.Err)
	}
	if resp.Metrics.CacheHit || !reflect.DeepEqual(resp.Result, want) {
		t.Fatalf("re-pointed request: hit %v, result equal %v — it was answered with the prepared job's entry",
			resp.Metrics.CacheHit, reflect.DeepEqual(resp.Result, want))
	}
}

// TestPreparedSharedAcrossGoroutines: one *Prepared feeds many goroutines
// deriving keys and running requests at once (-race is the assertion that
// nothing in it is written after Prepare).
func TestPreparedSharedAcrossGoroutines(t *testing.T) {
	job := testJob(t, "cholesky", 1)
	p := Prepare(job)
	eng := New(Options{})
	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				cfg := cluster.Config{
					Nodes: 1, CoresPerNode: 1 + (g+i)%4, Replicated: p.AllReplicated(),
					Injector: fault.NewFixedRate(uint64(i), 1e-3, 1e-3),
				}
				want, _ := RunKey(job, cfg)
				if got, _ := p.Request(cfg).key(); got != want {
					t.Errorf("goroutine %d: prepared key differs from RunKey", g)
					return
				}
				if resp := eng.RunRequest(context.Background(), p.Request(cfg)); resp.Err != nil {
					t.Error(resp.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := eng.Stats(); st.Misses != 16 {
		t.Fatalf("misses %d, want 16 (4 core counts × 4 seeds)", st.Misses)
	}
}

// TestWarmHitAllocations holds the hit path to O(config): a warm prepared
// RunRequest allocates a handful of small objects whatever the job's size.
func TestWarmHitAllocations(t *testing.T) {
	p := Prepare(testJob(t, "stream", 1))
	req := p.Request(cluster.Config{
		Nodes: 1, CoresPerNode: 16, Replicated: p.AllReplicated(),
		Injector: fault.NewFixedRate(42, 5e-3, 5e-3),
	})
	eng := New(Options{})
	ctx := context.Background()
	if resp := eng.RunRequest(ctx, req); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if resp := eng.RunRequest(ctx, req); !resp.Metrics.CacheHit {
			t.Fatal("warm request missed")
		}
	})
	if allocs > 8 {
		t.Fatalf("warm RunRequest: %v allocs, want ≤ 8", allocs)
	}
}

// TestTasksDigestAllocations: the cold derivation streams through one
// reused buffer, so its allocation count does not grow with the task list.
func TestTasksDigestAllocations(t *testing.T) {
	for _, name := range []string{"stream", "cholesky"} {
		for _, scale := range []int{1, 8} {
			job := testJob(t, name, 1)
			tasks := job.Tasks
			for i := 1; i < scale; i++ {
				tasks = append(tasks, job.Tasks...)
			}
			allocs := testing.AllocsPerRun(10, func() { tasksDigest(tasks) })
			if allocs > 4 {
				t.Fatalf("%s ×%d (%d tasks): tasksDigest made %v allocs, want ≤ 4", name, scale, len(tasks), allocs)
			}
		}
	}
}

// TestPreparedRunMatchesClusterRun: for random DAGs × configs, a prepared
// request simulates to a Result bitwise equal to cluster.Run's — on the
// layout the Prepared built, and through every fallback: a node count the
// layout was not built for, a run on a topology, and a request whose Tasks
// were re-pointed at an edited copy. The variants run
// in a random order, so the layout is sometimes built by a fallback case.
func TestPreparedRunMatchesClusterRun(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		job, cfg := genJobConfig(r)
		p := Prepare(job)
		more := cfg
		more.Nodes++
		topo, err := simnet.MarenostrumTopology(cfg.Nodes+r.Intn(2), 1+r.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		onTopo := cfg
		onTopo.Topo = topo
		reqs := []Request{p.Request(cfg), p.Request(more), p.Request(onTopo)}
		edited := p.Request(cfg)
		edited.Job.Tasks = append([]cluster.Task(nil), job.Tasks...)
		edited.Job.Tasks[r.Intn(len(job.Tasks))].Cost += 7
		reqs = append(reqs, edited)
		for _, k := range r.Perm(len(reqs)) {
			req := reqs[k]
			got, gotErr := req.run()
			want, wantErr := cluster.Run(req.Job, req.Config)
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Logf("seed %d, %d nodes: prepared run %+v (%v), cluster.Run %+v (%v)",
					seed, req.Config.Nodes, got, gotErr, want, wantErr)
				return false
			}
		}
		return p.lay != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedLayoutSharedAcrossBatches: one *Prepared feeds RunBatch from
// 8 goroutines at once, every batch a different mix of machine shapes and
// fault seeds, so concurrent simulations read the one layout. Every result
// must equal its serial cluster.Run bitwise (-race is the assertion that
// no run writes the layout, and that building it on first use is safe).
func TestPreparedLayoutSharedAcrossBatches(t *testing.T) {
	p := Prepare(testJob(t, "cholesky", 4))
	const goroutines = 8
	batches := make([][]Request, goroutines)
	for g := range batches {
		for i := 0; i < 6; i++ {
			batches[g] = append(batches[g], p.Request(cluster.Config{
				Nodes: 4, CoresPerNode: 1 + (g+i)%4, ReplicaCores: i % 2, Replicated: p.AllReplicated(),
				Injector: fault.NewFixedRate(uint64(g*6+i), 2e-2, 2e-2),
			}))
		}
	}
	eng := New(Options{Workers: 4, CacheEntries: -1})
	got := make([][]Response, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = eng.RunBatch(context.Background(), batches[g])
		}(g)
	}
	wg.Wait()
	for g, batch := range batches {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, req := range batch {
			want, err := cluster.Run(req.Job, req.Config)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[g][i].Result, want) {
				t.Fatalf("goroutine %d request %d: result differs from serial cluster.Run", g, i)
			}
		}
	}
	if p.lay == nil {
		t.Fatal("no layout was built on first use")
	}
}
