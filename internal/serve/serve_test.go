package serve

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/sweep"
)

// testRequest builds one small real simulation request.
func testRequest(t testing.TB, name string, cores int) sweep.Request {
	t.Helper()
	w, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	job := w.BuildJob(workload.Tiny, 1, workload.DefaultCostModel())
	return sweep.Request{Job: job, Config: cluster.Config{Nodes: 1, CoresPerNode: cores}}
}

func newTestServer(t testing.TB, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s
}

// TestSubmitServesBitwiseResults: served responses are bitwise what a
// serial cluster.Run returns, the service metrics are filled, and the
// per-tenant books balance.
func TestSubmitServesBitwiseResults(t *testing.T) {
	s := newTestServer(t, Options{
		Tenants: []TenantConfig{{Name: "alpha"}, {Name: "beta", Weight: 2}},
	})
	reqs := []sweep.Request{
		testRequest(t, "stream", 4),
		testRequest(t, "fft", 8),
	}
	want := make([]cluster.Result, len(reqs))
	for i, r := range reqs {
		res, err := cluster.Run(r.Job, r.Config)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	for _, tenant := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps, err := s.Submit(context.Background(), tenant, reqs)
			if err != nil {
				t.Errorf("%s: %v", tenant, err)
				return
			}
			for i, resp := range resps {
				if !reflect.DeepEqual(resp.Result, want[i]) {
					t.Errorf("%s request %d: result differs from serial cluster.Run", tenant, i)
				}
				m := resp.Metrics
				if m.Tenant != tenant || m.Index != i || m.Name != reqs[i].Job.Name {
					t.Errorf("%s request %d: identity columns wrong: %+v", tenant, i, m)
				}
				if m.Total <= 0 || m.Total < m.QueueWait {
					t.Errorf("%s request %d: implausible timings: %+v", tenant, i, m)
				}
			}
		}()
	}
	wg.Wait()

	st := s.Stats()
	if err := st.Accounting(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range st.Tenants {
		if ts.Admitted != 2 || ts.Completed != 2 || ts.Queued != 0 || ts.Inflight != 0 {
			t.Fatalf("tenant %s accounting: %+v", ts.Tenant, ts)
		}
	}
}

// instantExec answers every request at once without an engine, leaving
// the service's own bookkeeping as all the work.
type instantExec struct{}

func (instantExec) run(context.Context, sweep.Request) sweep.Response { return sweep.Response{} }

// TestStatsAfterSubmitSeesBooksMoved: Submit returns only once the worker
// has moved its request out of flight, so a Stats read right after it
// never sees the request still running.
func TestStatsAfterSubmitSeesBooksMoved(t *testing.T) {
	s := newTestServer(t, Options{Tenants: []TenantConfig{{Name: "solo"}}, Workers: 2})
	s.mu.Lock()
	s.exec = instantExec{}
	s.mu.Unlock()
	reqs := []sweep.Request{testRequest(t, "stream", 1)}
	for i := 0; i < 1000; i++ {
		if _, err := s.Submit(context.Background(), "solo", reqs); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if err := st.Accounting(); err != nil || st.Inflight != 0 || st.Tenants[0].Completed != uint64(i+1) {
			t.Fatalf("after submit %d: inflight %d, %+v, accounting %v", i, st.Inflight, st.Tenants[0], err)
		}
	}
}

// TestAdmissionRejections walks every admission gate: unknown tenant,
// queue cap, rate limit, draining. Each rejection is an *AdmissionError
// wrapping ErrAdmission, carrying the tenant and the gate's reason, with
// nothing queued.
func TestAdmissionRejections(t *testing.T) {
	base := time.Now()
	clock := base
	s := newTestServer(t, Options{
		Tenants: []TenantConfig{
			{Name: "limited", Rate: 1, Burst: 2, QueueCap: 8},
			{Name: "capped", QueueCap: 2},
		},
	})
	s.mu.Lock()
	s.now = func() time.Time { return clock }
	for _, tn := range s.tenants {
		tn.last = clock
	}
	s.mu.Unlock()

	expect := func(err error, tenant, reason string) {
		t.Helper()
		if err == nil {
			t.Fatalf("want %s rejection for %s", reason, tenant)
		}
		if !errors.Is(err, ErrAdmission) {
			t.Fatalf("error %v must wrap ErrAdmission", err)
		}
		var ae *AdmissionError
		if !errors.As(err, &ae) {
			t.Fatalf("error %T must be *AdmissionError", err)
		}
		if ae.Tenant != tenant || ae.Reason != reason {
			t.Fatalf("admission error %+v, want tenant %s reason %q", ae, tenant, reason)
		}
	}

	ctx := context.Background()
	req := testRequest(t, "stream", 2)

	_, err := s.Submit(ctx, "ghost", []sweep.Request{req})
	expect(err, "ghost", ReasonUnknownTenant)

	// Queue cap: a batch bigger than the cap can never fit.
	_, err = s.Submit(ctx, "capped", []sweep.Request{req, req, req})
	expect(err, "capped", ReasonQueueFull)

	// Token bucket: burst 2 admits two, the third is rejected until the
	// bucket refills at 1 req/s.
	if _, err := s.Submit(ctx, "limited", []sweep.Request{req, req}); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(ctx, "limited", []sweep.Request{req})
	expect(err, "limited", ReasonRateLimited)
	clock = clock.Add(1100 * time.Millisecond)
	if _, err := s.Submit(ctx, "limited", []sweep.Request{req}); err != nil {
		t.Fatalf("bucket must refill after a second: %v", err)
	}

	st := s.Stats()
	if err := st.Accounting(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range st.Tenants {
		switch ts.Tenant {
		case "limited":
			if ts.Admitted != 3 || ts.Rejected != 1 {
				t.Fatalf("limited accounting %+v", ts)
			}
		case "capped":
			if ts.Admitted != 0 || ts.Rejected != 3 {
				t.Fatalf("capped accounting %+v", ts)
			}
		}
	}
	if st.RejectedUnknown != 1 {
		t.Fatalf("rejected_unknown %d, want 1", st.RejectedUnknown)
	}

	// Draining: after Drain starts, every submit is rejected.
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(ctx, "limited", []sweep.Request{req})
	expect(err, "limited", ReasonDraining)
}

// gatedExec blocks every execution until the gate opens, then delegates;
// tests use it to hold requests in flight deterministically.
type gatedExec struct {
	gate  chan struct{}
	inner executor
}

func (g gatedExec) run(ctx context.Context, req sweep.Request) sweep.Response {
	<-g.gate
	return g.inner.run(ctx, req)
}

// TestQueuedRequestCancelledFailsFast: a request whose Submit context
// expires while it waits in the tenant queue fails with the context error
// at dispatch — it never reaches the engine — and is booked as failed.
func TestQueuedRequestCancelledFailsFast(t *testing.T) {
	s := newTestServer(t, Options{
		Tenants: []TenantConfig{{Name: "solo"}},
		Workers: 1,
	})
	gate := make(chan struct{})
	s.mu.Lock()
	s.exec = gatedExec{gate: gate, inner: s.exec}
	s.mu.Unlock()

	req := testRequest(t, "stream", 2)

	soloStats := func() TenantStats {
		var solo TenantStats
		for _, ts := range s.Stats().Tenants {
			if ts.Tenant == "solo" {
				solo = ts
			}
		}
		return solo
	}
	waitFor := func(what string, cond func(TenantStats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond(soloStats()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened: %+v", what, soloStats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// First submission occupies the single worker at the gate...
	firstDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "solo", []sweep.Request{req})
		firstDone <- err
	}()
	waitFor("first request in flight", func(ts TenantStats) bool { return ts.Inflight == 1 })

	// ...then the second queues behind it under a context we cancel while
	// it waits.
	ctx, cancel := context.WithCancel(context.Background())
	secondDone := make(chan struct {
		resps []Response
		err   error
	}, 1)
	go func() {
		resps, err := s.Submit(ctx, "solo", []sweep.Request{req})
		secondDone <- struct {
			resps []Response
			err   error
		}{resps, err}
	}()
	waitFor("second request queued", func(ts TenantStats) bool { return ts.Queued == 1 })
	cancel()
	close(gate)

	if err := <-firstDone; err != nil {
		t.Fatalf("in-flight request must complete: %v", err)
	}
	second := <-secondDone
	if !errors.Is(second.err, context.Canceled) {
		t.Fatalf("queued request err %v, want context.Canceled", second.err)
	}
	if len(second.resps) != 1 || !errors.Is(second.resps[0].Err, context.Canceled) {
		t.Fatalf("cancelled response missing its error: %+v", second.resps)
	}

	st := s.Stats()
	if err := st.Accounting(); err != nil {
		t.Fatal(err)
	}
	if st.Engine.Requests != 1 {
		t.Fatalf("engine ran %d requests, want 1 (the cancelled one never dispatched)", st.Engine.Requests)
	}
}

// TestFairnessSoak10x is the N-tenant starvation soak (run under -race by
// the suite): one tenant offers 10× the load of three light tenants, all
// queues are backlogged before service starts, and the dispatch shares
// over the measured window must track the configured weights — the heavy
// tenant is held to its weight share and the light tenants never starve.
func TestFairnessSoak10x(t *testing.T) {
	const (
		lightBacklog = 500
		heavyBacklog = 10 * lightBacklog
		window       = 1500
	)
	weights := map[string]int{"heavy": 2, "light1": 1, "light2": 1, "light3": 1}
	backlog := map[string]int{"heavy": heavyBacklog, "light1": lightBacklog, "light2": lightBacklog, "light3": lightBacklog}
	total := heavyBacklog + 3*lightBacklog

	s := newTestServer(t, Options{
		EngineOptions: sweep.Options{Workers: 2},
		Tenants: []TenantConfig{
			{Name: "heavy", Weight: weights["heavy"], QueueCap: heavyBacklog},
			{Name: "light1", Weight: weights["light1"], QueueCap: lightBacklog},
			{Name: "light2", Weight: weights["light2"], QueueCap: lightBacklog},
			{Name: "light3", Weight: weights["light3"], QueueCap: lightBacklog},
		},
		Workers: 4,
		Quantum: 8,
	})

	// Gate the executor shut until every tenant's backlog is queued, so
	// the DRR dispatch order is measured from fully loaded queues.
	gate := make(chan struct{})
	var mu sync.Mutex
	order := []string{}
	s.mu.Lock()
	s.exec = gatedExec{gate: gate, inner: s.exec}
	s.onDispatch = func(tenant string) {
		mu.Lock()
		order = append(order, tenant)
		mu.Unlock()
	}
	s.mu.Unlock()

	req := testRequest(t, "stream", 2)
	var wg sync.WaitGroup
	for name, n := range backlog {
		batch := make([]sweep.Request, n)
		for i := range batch {
			batch[i] = req
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), name, batch); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().Queued+s.Stats().Inflight < total {
		if time.Now().After(deadline) {
			t.Fatalf("backlogs never fully queued: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	counts := make(map[string]int)
	mu.Lock()
	for _, tenant := range order[:window] {
		counts[tenant]++
	}
	mu.Unlock()
	weightSum := 0
	for _, w := range weights {
		weightSum += w
	}
	for name, w := range weights {
		expected := float64(window) * float64(w) / float64(weightSum)
		got := float64(counts[name])
		if got < 0.75*expected || got > 1.25*expected {
			t.Fatalf("tenant %s served %d of first %d dispatches, want %.0f ±25%% (weights %v, counts %v)",
				name, counts[name], window, expected, weights, counts)
		}
	}
	if err := s.Stats().Accounting(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainWaitsForQueuedWork: Drain must serve everything already
// admitted before returning, and a second Drain is idempotent.
func TestDrainWaitsForQueuedWork(t *testing.T) {
	s, err := New(Options{Tenants: []TenantConfig{{Name: "a"}}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]sweep.Request, 16)
	for i := range reqs {
		reqs[i] = testRequest(t, "stream", 1+i%4)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "a", reqs)
		done <- err
	}()
	// Wait for admission, then drain concurrently with service.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if len(st.Tenants) == 1 && st.Tenants[0].Admitted == uint64(len(reqs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted batch must complete through drain: %v", err)
	}
	st := s.Stats()
	if !st.Draining || st.Queued != 0 || st.Inflight != 0 {
		t.Fatalf("post-drain state %+v", st)
	}
	if st.Tenants[0].Completed != uint64(len(reqs)) {
		t.Fatalf("completed %d, want %d", st.Tenants[0].Completed, len(reqs))
	}
	if err := st.Accounting(); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain must be idempotent: %v", err)
	}
}

// TestMetricsCSVGoldenHeader locks the column contract of the service
// metrics export: identity columns first, then one column per stage —
// consumers of appfit-load -csv parse this header, so it cannot drift
// silently.
func TestMetricsCSVGoldenHeader(t *testing.T) {
	const golden = "tenant,index,name,key,admission_wait_ns,queue_wait_ns,cache_lookup_ns,sim_ns,total_ns,cache_hit,coalesced"
	if got := strings.Join(MetricsHeader, ","); got != golden {
		t.Fatalf("metrics header drifted:\n got %s\nwant %s", got, golden)
	}
	var sb strings.Builder
	ms := []Metrics{{
		Tenant: "alpha", AdmissionWait: time.Microsecond,
		Metrics: sweep.Metrics{
			Index: 0, Name: "stream", Key: "deadbeef", QueueWait: 2 * time.Microsecond,
			CacheLookup: 3 * time.Microsecond, Sim: 4 * time.Microsecond,
			Total: 10 * time.Microsecond, CacheHit: true,
		},
	}}
	if err := WriteMetricsCSV(&sb, ms); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 || lines[0] != golden {
		t.Fatalf("CSV output:\n%s", sb.String())
	}
	if lines[1] != "alpha,0,stream,deadbeef,1000,2000,3000,4000,10000,true,false" {
		t.Fatalf("row: %s", lines[1])
	}
}

// TestParseTenants covers the daemon's tenant-spec grammar.
func TestParseTenants(t *testing.T) {
	tcs, err := ParseTenants("heavy=3,light=1/10/20/256,bare")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantConfig{
		{Name: "heavy", Weight: 3},
		{Name: "light", Weight: 1, Rate: 10, Burst: 20, QueueCap: 256},
		{Name: "bare"},
	}
	if !reflect.DeepEqual(tcs, want) {
		t.Fatalf("parsed %+v\nwant %+v", tcs, want)
	}
	for _, bad := range []string{"", "=3", "a=0", "a=1/x", "a=1/1/0", "a=1/1/1/x", "a,a", "a=1/2/3/4/5"} {
		if _, err := ParseTenants(bad); err == nil {
			t.Fatalf("ParseTenants(%q) must fail", bad)
		}
	}
}

// TestTenantRateValidation: a NaN or infinite rate is refused by the
// spec parser and by New, and a finite rate too large for an int still
// derives a burst ≥ 1 — a negative burst rate-limits every request, and a
// NaN rate switches the bucket off.
func TestTenantRateValidation(t *testing.T) {
	for _, spec := range []string{"a=1/NaN", "a=1/+Inf", "a=1/inf"} {
		if _, err := ParseTenants(spec); !errors.Is(err, ErrTenantSpec) {
			t.Errorf("ParseTenants(%q): err = %v, want ErrTenantSpec", spec, err)
		}
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if _, err := New(Options{Tenants: []TenantConfig{{Name: "a", Rate: rate}}}); err == nil {
			t.Errorf("New with rate %v must fail", rate)
		}
	}
	tcs, err := ParseTenants("a=1/1e300,b=1/9.3e18,c=1/2.5")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{math.MaxInt32, math.MaxInt32, 3} {
		tc, err := tcs[i].normalized()
		if err != nil || tc.Burst != want {
			t.Errorf("%s: normalized burst %d (err %v), want %d", tc.Name, tc.Burst, err, want)
		}
	}
	s := newTestServer(t, Options{Tenants: tcs[:1]})
	if _, err := s.Submit(context.Background(), "a", []sweep.Request{testRequest(t, "stream", 2)}); err != nil {
		t.Fatalf("a 1e300 req/s tenant must admit: %v", err)
	}
}

// TestNewValidations: a server refuses an empty or duplicate tenant set.
func TestNewValidations(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("no tenants must fail")
	}
	if _, err := New(Options{Tenants: []TenantConfig{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Fatal("duplicate tenants must fail")
	}
	if _, err := New(Options{Tenants: []TenantConfig{{}}}); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty tenant name: %v, want ErrConfig", err)
	}
}

// TestOversizedShareRejected: a weight or a quantum past maxShare is refused
// by name. Accepted, weight 1<<58 at the default quantum 64 wraps each
// visit's credit to 0, so the head never fits and the first Submit spins in
// drr.next forever holding Server.mu; the bounded wait below fails the test
// instead of hanging it.
func TestOversizedShareRejected(t *testing.T) {
	if _, err := ParseTenants("a=288230376151711744"); !errors.Is(err, ErrTenantSpec) {
		t.Fatalf("ParseTenants accepted weight 1<<58: %v", err)
	}
	for _, opts := range []Options{
		{Tenants: []TenantConfig{{Name: "a", Weight: 1 << 58}}},
		{Tenants: []TenantConfig{{Name: "a", Weight: maxShare + 1}}},
		{Tenants: []TenantConfig{{Name: "a"}}, Quantum: 1 << 58},
		{Tenants: []TenantConfig{{Name: "a"}}, Quantum: maxShare + 1},
	} {
		s, err := New(opts)
		if errors.Is(err, ErrConfig) {
			continue
		}
		if err != nil {
			t.Fatalf("New(weight %d, quantum %d): %v, want ErrConfig", opts.Tenants[0].Weight, opts.Quantum, err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := s.Submit(context.Background(), "a", []sweep.Request{testRequest(t, "stream", 1)})
			done <- err
		}()
		select {
		case err = <-done:
			t.Fatalf("New(weight %d, quantum %d) accepted (Submit: %v), want ErrConfig", opts.Tenants[0].Weight, opts.Quantum, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("New(weight %d, quantum %d) accepted, and Submit hangs", opts.Tenants[0].Weight, opts.Quantum)
		}
	}
	// The bounds themselves are usable: the largest credit a visit can add
	// dispatches a request.
	s := newTestServer(t, Options{Tenants: []TenantConfig{{Name: "a", Weight: maxShare}}, Quantum: maxShare})
	if _, err := s.Submit(context.Background(), "a", []sweep.Request{testRequest(t, "stream", 1)}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsAccountingDetectsMismatch: the invariant checker actually fires
// on cooked books.
func TestStatsAccountingDetectsMismatch(t *testing.T) {
	st := Stats{Tenants: []TenantStats{{Tenant: "x", Admitted: 3, Completed: 1, Failed: 1}}}
	if err := st.Accounting(); err == nil {
		t.Fatal("mismatched books must error")
	} else if !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("error must name the tenant: %v", err)
	}
	st.Tenants[0].Queued = 1
	if err := st.Accounting(); err != nil {
		t.Fatalf("balanced books must pass: %v", err)
	}
}
