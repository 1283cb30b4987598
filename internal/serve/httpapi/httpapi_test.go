package httpapi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"appfit/internal/serve"
	"appfit/internal/sweep"
)

func newTestServer(t *testing.T, tenants ...serve.TenantConfig) (*serve.Server, *Client) {
	t.Helper()
	if len(tenants) == 0 {
		tenants = []serve.TenantConfig{{Name: "alpha"}, {Name: "beta"}}
	}
	s, err := serve.New(serve.Options{
		Tenants:       tenants,
		EngineOptions: sweep.Options{Workers: 2},
		Workers:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, &Client{Base: ts.URL, HTTP: ts.Client()}
}

func TestSubmitRoundTrip(t *testing.T) {
	s, c := newTestServer(t)
	specs := []JobSpec{
		{Bench: "stream"},
		{Bench: "nbody", Scale: "tiny", Nodes: 2, Rate: 1e-3, Replicate: true},
	}
	resp, err := c.Submit(context.Background(), "alpha", specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Err != "" {
			t.Fatalf("result %d failed: %s", i, r.Err)
		}
		if r.MakespanNS <= 0 {
			t.Fatalf("result %d: makespan %d, want > 0", i, r.MakespanNS)
		}
		if r.Metrics.Tenant != "alpha" {
			t.Fatalf("result %d: tenant %q, want alpha", i, r.Metrics.Tenant)
		}
	}
	// The wire result must match an in-process submission bitwise: same
	// spec, same engine, same cached key.
	sr, err := specs[0].Request()
	if err != nil {
		t.Fatal(err)
	}
	local, err := s.Submit(context.Background(), "beta", []sweep.Request{sr})
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(local[0].Result.Makespan); got != resp.Results[0].MakespanNS {
		t.Fatalf("wire makespan %d != in-process %d", resp.Results[0].MakespanNS, got)
	}
	if !local[0].Metrics.CacheHit {
		t.Fatal("in-process re-run of the same spec missed the cache")
	}
}

// TestAdmissionErrorsOverWire: each rejection reason survives the HTTP
// round trip as a *serve.AdmissionError that errors.Is-matches the
// sentinel, with the right status code.
func TestAdmissionErrorsOverWire(t *testing.T) {
	_, c := newTestServer(t,
		serve.TenantConfig{Name: "limited", Rate: 0.000001, Burst: 1},
	)
	ctx := context.Background()

	_, err := c.Submit(ctx, "ghost", []JobSpec{{Bench: "stream"}})
	assertAdmission(t, err, "ghost", serve.ReasonUnknownTenant)

	// Burst 1: the first single-request batch drains the bucket, the
	// second is rate limited (refill is ~1 request per 11 days).
	if _, err := c.Submit(ctx, "limited", []JobSpec{{Bench: "stream"}}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err = c.Submit(ctx, "limited", []JobSpec{{Bench: "stream"}})
	assertAdmission(t, err, "limited", serve.ReasonRateLimited)
}

func assertAdmission(t *testing.T, err error, tenant, reason string) {
	t.Helper()
	if !errors.Is(err, serve.ErrAdmission) {
		t.Fatalf("error %v does not match serve.ErrAdmission", err)
	}
	var ae *serve.AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("error %T is not *serve.AdmissionError", err)
	}
	if ae.Tenant != tenant || ae.Reason != reason {
		t.Fatalf("got tenant %q reason %q, want %q %q", ae.Tenant, ae.Reason, tenant, reason)
	}
}

func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		specs []JobSpec
		want  string
	}{
		{"empty batch", nil, "names no requests"},
		{"unknown bench", []JobSpec{{Bench: "no-such-bench"}}, "no-such-bench"},
		{"unknown scale", []JobSpec{{Bench: "stream", Scale: "galactic"}}, "galactic"},
		{"bad rate", []JobSpec{{Bench: "stream", Rate: 1.5}}, "fault rate"},
		{"too many nodes", []JobSpec{{Bench: "stream", Nodes: MaxNodes + 1}}, "nodes"},
		{"negative nodes", []JobSpec{{Bench: "stream", Nodes: -1}}, "nodes"},
		{"too many cores", []JobSpec{{Bench: "stream", Cores: MaxCores + 1}}, "cores"},
		{"batch too long", make([]JobSpec, MaxBatch+1), "exceeds"},
	} {
		_, err := c.Submit(ctx, "alpha", tc.specs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
		if errors.Is(err, serve.ErrAdmission) {
			t.Errorf("%s: bad request misreported as admission rejection", tc.name)
		}
		if !strings.Contains(fmt.Sprint(err), "400") {
			t.Errorf("%s: error %v, want a 400", tc.name, err)
		}
	}
}

// TestSpecBoundsAreInclusive: the largest machine and batch a spec may name
// resolve; one past either bound is an ErrSpec.
func TestSpecBoundsAreInclusive(t *testing.T) {
	edge := JobSpec{Bench: "fft", Nodes: MaxNodes, Cores: MaxCores}
	req, err := edge.Request()
	if err != nil {
		t.Fatal(err)
	}
	if req.Config.Nodes != MaxNodes || req.Config.CoresPerNode != MaxCores {
		t.Fatalf("config %+v, want %d nodes × %d cores", req.Config, MaxNodes, MaxCores)
	}
	if reqs, err := (SubmitRequest{Requests: slices.Repeat([]JobSpec{{Bench: "fft"}}, MaxBatch)}).sweepRequests(); err != nil || len(reqs) != MaxBatch {
		t.Fatalf("a %d-request batch: %d requests, %v", MaxBatch, len(reqs), err)
	}
	for _, bad := range []JobSpec{
		{Bench: "fft", Nodes: MaxNodes + 1}, {Bench: "fft", Cores: MaxCores + 1},
		{Bench: "fft", Nodes: -1}, {Bench: "fft", Cores: -1}, {Bench: "fft", Rate: math.NaN()},
	} {
		if _, err := bad.Request(); !errors.Is(err, ErrSpec) {
			t.Errorf("%+v: error %v, want ErrSpec", bad, err)
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	if !c.Healthy(ctx) {
		t.Fatal("fresh server reports unhealthy")
	}
	if _, err := c.Submit(ctx, "alpha", []JobSpec{{Bench: "stream"}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Accounting(); err != nil {
		t.Fatal(err)
	}
	var alpha *serve.TenantStats
	for i := range st.Tenants {
		if st.Tenants[i].Tenant == "alpha" {
			alpha = &st.Tenants[i]
		}
	}
	if alpha == nil || alpha.Completed != 1 {
		t.Fatalf("stats after one request: %+v", st.Tenants)
	}
}

// TestHealthzDrainingGoes503 drives the daemon's readiness signal: a
// draining server answers /healthz 503 and rejects new submissions.
func TestHealthzDrainingGoes503(t *testing.T) {
	s, err := serve.New(serve.Options{
		Tenants:       []serve.TenantConfig{{Name: "alpha"}},
		EngineOptions: sweep.Options{Workers: 1},
		Workers:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	c := &Client{Base: ts.URL, HTTP: ts.Client()}
	ctx := context.Background()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Healthy(ctx) {
		t.Fatal("draining server reports healthy")
	}
	_, err = c.Submit(ctx, "alpha", []JobSpec{{Bench: "stream"}})
	assertAdmission(t, err, "alpha", serve.ReasonDraining)
}

func TestMethodNotAllowed(t *testing.T) {
	_, c := newTestServer(t)
	resp, err := c.http().Get(c.Base + "/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /submit: %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
}

// TestJobMemoized locks the handler-side job cache: two requests naming
// the same (bench, scale, nodes) must share one built job (same backing
// array — construction cost is paid once, not per request), while a
// different node count builds its own.
func TestJobMemoized(t *testing.T) {
	specA := JobSpec{Bench: "stream", Scale: "tiny", Seed: 1, Rate: 1e-9}
	specB := JobSpec{Bench: "stream", Scale: "tiny", Seed: 2, Rate: 1e-3}
	a, err := specA.Request()
	if err != nil {
		t.Fatal(err)
	}
	b, err := specB.Request()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Job.Tasks) == 0 || &a.Job.Tasks[0] != &b.Job.Tasks[0] {
		t.Fatal("same (bench, scale, nodes) must reuse the memoized job")
	}
	c, err := JobSpec{Bench: "stream", Scale: "tiny", Nodes: 2}.Request()
	if err != nil {
		t.Fatal(err)
	}
	if &a.Job.Tasks[0] == &c.Job.Tasks[0] {
		t.Fatal("different node count must build a distinct job")
	}
	// The cache keys on the resolved scale: "" means tiny, one entry.
	d, err := JobSpec{Bench: "stream"}.Request()
	if err != nil {
		t.Fatal(err)
	}
	if &a.Job.Tasks[0] != &d.Job.Tasks[0] {
		t.Fatal(`scale "" and "tiny" must share one memoized job`)
	}
	// Replicated requests of one job share its read-only all-true vector.
	specA.Replicate, specB.Replicate = true, true
	a, _ = specA.Request()
	b, _ = specB.Request()
	if len(a.Config.Replicated) != len(a.Job.Tasks) || &a.Config.Replicated[0] != &b.Config.Replicated[0] {
		t.Fatal("replicated requests must share the prepared job's Replicated vector")
	}
}

// TestWrappedAdmissionErrorStillRejects: a rejection that reaches the
// handler wrapped must map to its status, not fall through to a 200.
func TestWrappedAdmissionErrorStillRejects(t *testing.T) {
	if ae := asAdmission(fmt.Errorf("submit: %w", &serve.AdmissionError{Reason: serve.ReasonDraining})); ae == nil || admissionStatus(ae) != http.StatusServiceUnavailable {
		t.Fatalf("wrapped admission error not recognised: %v", ae)
	}
}
