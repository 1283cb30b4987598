package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/fault"
)

// simulate executes one request through eng and returns its result.
func simulate(eng *Engine, job cluster.Job, cfg cluster.Config) (cluster.Result, error) {
	resp := eng.RunRequest(context.Background(), Request{Job: job, Config: cfg})
	return resp.Result, resp.Err
}

// testJob builds a small real workload DAG for nodes nodes.
func testJob(t testing.TB, name string, nodes int) cluster.Job {
	t.Helper()
	w, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.BuildJob(workload.Tiny, nodes, workload.DefaultCostModel())
}

// fig4Requests is a small fig-4-class batch: per benchmark a fault-free
// base run, a complete-replication run and a faulty replicated run. The
// batch mixes the two request spellings — the base run is a bare literal,
// the other two come from one Prepared — so every engine test exercises
// both key derivations side by side.
func fig4Requests(t testing.TB, names []string) []Request {
	t.Helper()
	var reqs []Request
	for _, name := range names {
		p := Prepare(testJob(t, name, 1))
		base := cluster.Config{Nodes: 1, CoresPerNode: 16}
		repl := base
		repl.ReplicaCores = 16
		repl.Replicated = p.AllReplicated()
		faulty := repl
		faulty.Injector = fault.NewFixedRate(42, 5e-3, 5e-3)
		reqs = append(reqs, Request{Job: p.Job(), Config: base}, p.Request(repl), p.Request(faulty))
	}
	return reqs
}

// TestRunBatchMatchesSerial is the engine's core contract: a parallel,
// cached, coalesced batch returns bitwise the results of a serial
// cluster.Run loop, in request order.
func TestRunBatchMatchesSerial(t *testing.T) {
	reqs := fig4Requests(t, []string{"stream", "cholesky", "fft"})
	// Duplicate the whole batch to exercise coalescing/caching inside one
	// RunBatch call.
	reqs = append(reqs, reqs...)

	want := make([]cluster.Result, len(reqs))
	for i, r := range reqs {
		res, err := cluster.Run(r.Job, r.Config)
		if err != nil {
			t.Fatalf("serial reference %d: %v", i, err)
		}
		want[i] = res
	}

	eng := New(Options{Workers: 8})
	resps, err := eng.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if !reflect.DeepEqual(resp.Result, want[i]) {
			t.Fatalf("request %d: batch result differs from serial reference\nbatch:  %+v\nserial: %+v",
				i, resp.Result, want[i])
		}
	}
	st := eng.Stats()
	if st.Requests != uint64(len(reqs)) {
		t.Fatalf("requests %d, want %d", st.Requests, len(reqs))
	}
	// The duplicated half must have been answered without re-simulating:
	// 9 unique configs → 9 misses, everything else hits or coalesced.
	if st.Misses != 9 {
		t.Fatalf("misses %d, want 9 (unique requests)", st.Misses)
	}
	if st.Hits+st.Coalesced != uint64(len(reqs))-9 {
		t.Fatalf("hits %d + coalesced %d, want %d", st.Hits, st.Coalesced, len(reqs)-9)
	}
}

// TestWarmCacheHits locks the "repeat traffic is free" contract: a second
// identical batch is answered ≥90% (here: entirely) from the cache,
// bitwise-equal to the first.
func TestWarmCacheHits(t *testing.T) {
	reqs := fig4Requests(t, []string{"stream", "perlin"})
	eng := New(Options{Workers: 4})
	first, err := eng.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	second, err := eng.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	if hits := after.Hits - before.Hits; hits != uint64(len(reqs)) {
		t.Fatalf("second pass: %d hits of %d requests", hits, len(reqs))
	}
	for i := range reqs {
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Fatalf("request %d: warm result differs from cold", i)
		}
		if !second[i].Metrics.CacheHit {
			t.Fatalf("request %d: second pass not marked a hit", i)
		}
	}
}

// TestCachedResultIsAValue: the cache stores a cluster.Result and hands
// out copies of it, which is only safe while a Result holds no reference
// into shared state. The == below stops compiling if a slice or map field
// comes back.
func TestCachedResultIsAValue(t *testing.T) {
	job := testJob(t, "stream", 1)
	cfg := cluster.Config{Nodes: 1, CoresPerNode: 4}
	eng := New(Options{})
	first, err := simulate(eng, job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := first
	first.Makespan = -1
	second, err := simulate(eng, job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second != want {
		t.Fatalf("cache hit %+v, want the first answer %+v", second, want)
	}
	if eng.Stats().Hits != 1 {
		t.Fatalf("hits %d, want 1", eng.Stats().Hits)
	}
}

// TestUncacheableInjectorRunsEveryTime: an injector that does not expose
// its state (no fault.Keyer) must never be memoized.
type opaqueInjector struct{}

func (opaqueInjector) Draw(uint64, int, float64, float64) fault.Outcome { return fault.None }
func (opaqueInjector) BitIndex(uint64, int, int64) int64                { return 0 }

func TestUncacheableInjectorRunsEveryTime(t *testing.T) {
	job := testJob(t, "stream", 1)
	cfg := cluster.Config{Nodes: 1, CoresPerNode: 4, Injector: &opaqueInjector{}}
	if _, ok := RunKey(job, cfg); ok {
		t.Fatal("opaque injector must be uncacheable")
	}
	eng := New(Options{})
	for i := 0; i < 3; i++ {
		if _, err := simulate(eng, job, cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Uncacheable != 3 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats %+v: want 3 uncacheable, 0 hits/misses", st)
	}
}

// TestBatchErrorNamesRequest: a failing request surfaces as a non-nil
// batch error carrying the request's parameters, wrapped around ErrRequest.
func TestBatchErrorNamesRequest(t *testing.T) {
	good := testJob(t, "stream", 1)
	bad := cluster.Job{Name: "broken", Tasks: []cluster.Task{{Node: 7, Cost: 1}}}
	reqs := []Request{
		{Job: good, Config: cluster.Config{Nodes: 1, CoresPerNode: 4}},
		{Job: bad, Config: cluster.Config{Nodes: 1, CoresPerNode: 4}},
	}
	eng := New(Options{Workers: 2})
	resps, err := eng.RunBatch(context.Background(), reqs)
	if err == nil {
		t.Fatal("batch with an invalid request must fail")
	}
	if !errors.Is(err, ErrRequest) {
		t.Fatalf("error %v must wrap ErrRequest", err)
	}
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("error %T must be a *RequestError", err)
	}
	if re.Index != 1 || re.Name != "broken" || re.Nodes != 1 || re.Cores != 4 {
		t.Fatalf("request error misnames the request: %+v", re)
	}
	if !strings.Contains(re.Error(), "broken") {
		t.Fatalf("message must carry the job name: %v", re)
	}
	if resps[0].Err != nil {
		t.Fatalf("healthy request must still succeed: %v", resps[0].Err)
	}
}

// TestRunBatchCancelledFailsFast: a batch submitted under an expired
// context must fail every request with the context error wrapped in its
// RequestError — a cancelled request stops waiting in the queue instead of
// running to completion — and must not simulate anything.
func TestRunBatchCancelledFailsFast(t *testing.T) {
	reqs := fig4Requests(t, []string{"stream", "fft"})
	eng := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resps, err := eng.RunBatch(ctx, reqs)
	if err == nil {
		t.Fatal("cancelled batch must fail")
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrRequest) {
		t.Fatalf("error %v must wrap both context.Canceled and ErrRequest", err)
	}
	for i, resp := range resps {
		if !errors.Is(resp.Err, context.Canceled) {
			t.Fatalf("request %d: err %v, want context.Canceled", i, resp.Err)
		}
	}
	st := eng.Stats()
	if st.Misses != 0 || st.Uncacheable != 0 {
		t.Fatalf("stats %+v: cancelled batch must not simulate", st)
	}
}

// TestCoalescedWaiterDetachesOnCancel: a request waiting on an identical
// in-flight twin detaches with ctx.Err() when its deadline expires, while
// the shared execution keeps running, completes, and still populates the
// cache for later callers.
func TestCoalescedWaiterDetachesOnCancel(t *testing.T) {
	eng := New(Options{})
	var key [32]byte
	key[0] = 0xA5

	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, err, _, _ := eng.do(context.Background(), key, func() (cluster.Result, error) {
			close(started)
			<-release
			return cluster.Result{Makespan: 42}, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	<-started

	// The waiter joins the in-flight call, then its context is cancelled
	// while the leader is still executing.
	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err, _, _ := eng.do(ctx, key, func() (cluster.Result, error) {
			t.Error("waiter must coalesce, not execute")
			return cluster.Result{}, nil
		})
		waiterErr <- err
	}()
	// Cancelling is race-free regardless of whether the waiter has parked
	// yet: the leader stays in flight until release, so the waiter's only
	// exits are the in-flight wait (then Done fires) or an entry with Done
	// already closed.
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("detached waiter err %v, want context.Canceled", err)
	}

	// The shared execution was not cancelled: release it, it completes and
	// its result is cached.
	close(release)
	<-leaderDone
	v, err, hit, _ := eng.do(context.Background(), key, func() (cluster.Result, error) {
		t.Error("result must be served from the cache")
		return cluster.Result{}, nil
	})
	if err != nil || !hit || v.Makespan != 42 {
		t.Fatalf("post-detach probe: v=%+v err=%v hit=%v, want the cached makespan 42", v, err, hit)
	}
	if got := eng.Stats().Coalesced; got != 0 {
		t.Fatalf("coalesced %d, want 0 (the waiter detached, it was not served)", got)
	}
}

// TestCacheBound: the LRU never exceeds its capacity and reports
// evictions.
func TestCacheBound(t *testing.T) {
	job := testJob(t, "stream", 1)
	eng := New(Options{CacheEntries: 3})
	for cores := 1; cores <= 6; cores++ {
		if _, err := simulate(eng, job, cluster.Config{Nodes: 1, CoresPerNode: cores}); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Entries != 3 {
		t.Fatalf("entries %d, want 3 (bounded)", st.Entries)
	}
	if st.Evictions != 3 {
		t.Fatalf("evictions %d, want 3", st.Evictions)
	}
	// The most recent config must still hit; the oldest must re-simulate.
	if _, err := simulate(eng, job, cluster.Config{Nodes: 1, CoresPerNode: 6}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Hits; got != 1 {
		t.Fatalf("hits %d, want 1 (MRU retained)", got)
	}
	if _, err := simulate(eng, job, cluster.Config{Nodes: 1, CoresPerNode: 1}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Misses; got != 7 {
		t.Fatalf("misses %d, want 7 (LRU evicted)", got)
	}
}

// TestCacheDisabled: CacheEntries < 0 turns memoization off entirely.
func TestCacheDisabled(t *testing.T) {
	job := testJob(t, "stream", 1)
	cfg := cluster.Config{Nodes: 1, CoresPerNode: 4}
	eng := New(Options{CacheEntries: -1})
	for i := 0; i < 2; i++ {
		if _, err := simulate(eng, job, cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("stats %+v: cache must be disabled", st)
	}
}

// TestMetricsCSV: the flat per-request timings export with one row per
// request and the stage columns populated.
func TestMetricsCSV(t *testing.T) {
	reqs := fig4Requests(t, []string{"stream"})
	eng := New(Options{Workers: 2})
	resps, err := eng.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteMetricsCSV(&sb, BatchMetrics(resps)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(reqs)+1 {
		t.Fatalf("%d CSV lines, want %d", len(lines), len(reqs)+1)
	}
	if !strings.HasPrefix(lines[0], "index,name,key,queue_wait_ns,cache_lookup_ns,sim_ns,total_ns") {
		t.Fatalf("header: %s", lines[0])
	}
	for _, resp := range resps {
		m := resp.Metrics
		if m.Total <= 0 || m.Total < m.Sim {
			t.Fatalf("implausible stage timings: %+v", m)
		}
		if m.Key == "" {
			t.Fatalf("cacheable request with empty key: %+v", m)
		}
	}
}
