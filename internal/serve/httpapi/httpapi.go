// Package httpapi is the HTTP/JSON wire layer of the appfit service: the
// request/response types, the server-side handler cmd/appfitd mounts, and
// the client cmd/appfit-load drives. Jobs travel as named benchmark specs
// (benchmark × scale × machine shape), not serialized DAGs — the daemon
// builds the DAG from the same workload registry the experiment drivers
// use, so a request is a few dozen bytes and the server stays in charge of
// canonical job construction (which is also what makes the engine's
// content-addressed cache effective across tenants).
//
// Endpoints:
//
//	POST /submit  {"tenant": "...", "requests": [JobSpec...]}
//	              → SubmitResponse | 4xx/5xx ErrorResponse
//	GET  /stats   → serve.Stats snapshot
//	GET  /healthz → 200 "ok", 503 "draining" while shutting down
//
// Admission rejections map to HTTP statuses (429 for queue-full and
// rate-limited, 503 draining, 404 unknown tenant) and the client maps them
// back to *serve.AdmissionError, so errors.Is(err, serve.ErrAdmission)
// works identically in-process and over the wire.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/fault"
	"appfit/internal/serve"
	"appfit/internal/sweep"
)

// JobSpec names one simulation request: a registered benchmark at a
// workload scale on a machine shape, with optional fault injection and
// complete replication. An empty scale is tiny; zero nodes and cores
// default like cmd/replicate's flags, to 1 and 16. A spec with a fault
// rate must name a nonzero seed.
type JobSpec struct {
	Bench string  `json:"bench"`
	Scale string  `json:"scale,omitempty"`
	Nodes int     `json:"nodes,omitempty"`
	Cores int     `json:"cores,omitempty"`
	Rate  float64 `json:"rate,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
	// Replicate selects complete replication for every task.
	Replicate bool `json:"replicate,omitempty"`
}

// The largest machine and batch a submission may name: far above the
// paper's 64 nodes × 16 cores and anything cmd/appfit-load or the
// benchmark sends, and low enough that one spec cannot make the daemon
// build, lay out and pin an arbitrarily large job. Larger values are
// rejected with ErrSpec.
const (
	MaxNodes = 1024
	MaxCores = 1024
	MaxBatch = 1024
)

// jobs resolves a spec's job through the process-wide prepared-job memo
// (bench.Prepared): a JobSpec's job is fully determined by its bench, scale
// and nodes, so every request for one job shares its build, digest and
// layout. FuzzJobSpec swaps in a memo that builds every job at Tiny.
var jobs = bench.Prepared

// ErrSpec is the sentinel wrapped by every JobSpec rejection (unknown
// scale or bench, out-of-range rate, nodes or cores, a rate without a
// seed) and every malformed batch, so servers can map it to a 400 without
// matching message text.
var ErrSpec = errors.New("httpapi: invalid job spec")

// ErrStatus is the sentinel wrapped by client-side failures carrying a
// non-OK HTTP status that is not an admission error.
var ErrStatus = errors.New("httpapi: unexpected response status")

// Request builds the sweep request the spec names.
func (s JobSpec) Request() (sweep.Request, error) {
	scale := workload.Tiny
	if s.Scale != "" {
		var err error
		if scale, err = workload.ParseScale(s.Scale); err != nil {
			return sweep.Request{}, fmt.Errorf("httpapi: %w: %w", err, ErrSpec)
		}
	}
	if s.Nodes < 0 || s.Nodes > MaxNodes || s.Cores < 0 || s.Cores > MaxCores {
		return sweep.Request{}, fmt.Errorf("httpapi: %d nodes × %d cores outside [0, %d] × [0, %d]: %w",
			s.Nodes, s.Cores, MaxNodes, MaxCores, ErrSpec)
	}
	nodes := s.Nodes
	if nodes == 0 {
		nodes = 1
	}
	cores := s.Cores
	if cores == 0 {
		cores = 16
	}
	if !(s.Rate >= 0 && s.Rate < 1) {
		return sweep.Request{}, fmt.Errorf("httpapi: fault rate %g outside [0, 1): %w", s.Rate, ErrSpec)
	}
	if s.Rate > 0 && s.Seed == 0 {
		return sweep.Request{}, fmt.Errorf("httpapi: fault rate %g without a seed: %w", s.Rate, ErrSpec)
	}
	w, err := bench.ByName(s.Bench)
	if err != nil {
		return sweep.Request{}, fmt.Errorf("%w: %w", ErrSpec, err)
	}
	p := jobs(w, scale, nodes)
	cfg := cluster.Config{Nodes: nodes, CoresPerNode: cores}
	if s.Rate > 0 {
		cfg.Injector = fault.NewFixedRate(s.Seed, s.Rate/2, s.Rate/2)
	}
	if s.Replicate {
		cfg.Replicated = p.AllReplicated()
	}
	return p.Request(cfg), nil
}

// SubmitRequest is the POST /submit body.
type SubmitRequest struct {
	Tenant   string    `json:"tenant"`
	Requests []JobSpec `json:"requests"`
}

// sweepRequests resolves the batch's specs in order. An empty or oversized
// batch, or any invalid spec, fails the whole batch with an error wrapping
// ErrSpec.
func (r SubmitRequest) sweepRequests() ([]sweep.Request, error) {
	if len(r.Requests) == 0 {
		return nil, fmt.Errorf("httpapi: submit body names no requests: %w", ErrSpec)
	}
	if len(r.Requests) > MaxBatch {
		return nil, fmt.Errorf("httpapi: batch of %d requests exceeds %d: %w", len(r.Requests), MaxBatch, ErrSpec)
	}
	reqs := make([]sweep.Request, len(r.Requests))
	for i, spec := range r.Requests {
		var err error
		if reqs[i], err = spec.Request(); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// Result is one request's outcome on the wire: the headline simulation
// numbers plus the full service metrics (identity and stage timings).
type Result struct {
	Name       string        `json:"name"`
	MakespanNS int64         `json:"makespan_ns"`
	Err        string        `json:"err,omitempty"`
	Metrics    serve.Metrics `json:"metrics"`
}

// SubmitResponse is the POST /submit success body, one Result per request
// in batch order.
type SubmitResponse struct {
	Results []Result `json:"results"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error  string `json:"error"`
	Tenant string `json:"tenant,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// NewHandler mounts the service API over s.
func NewHandler(s *serve.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /submit", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad submit body: %v", err)})
			return
		}
		reqs, err := req.sweepRequests()
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Tenant: req.Tenant})
			return
		}
		resps, err := s.Submit(r.Context(), req.Tenant, reqs)
		if ae := asAdmission(err); ae != nil {
			writeError(w, admissionStatus(ae), ErrorResponse{Error: ae.Error(), Tenant: ae.Tenant, Reason: ae.Reason})
			return
		}
		// Per-request failures ride inside the results; the batch itself
		// succeeded at the service level.
		out := SubmitResponse{Results: make([]Result, len(resps))}
		for i, resp := range resps {
			res := Result{Name: resp.Metrics.Name, MakespanNS: int64(resp.Result.Makespan), Metrics: resp.Metrics}
			if resp.Err != nil {
				res.Err = resp.Err.Error()
			}
			out.Results[i] = res
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Stats().Draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// asAdmission returns the *serve.AdmissionError err is or wraps, else nil.
func asAdmission(err error) *serve.AdmissionError {
	var ae *serve.AdmissionError
	errors.As(err, &ae)
	return ae
}

// admissionStatus maps a rejection reason to its HTTP status.
func admissionStatus(ae *serve.AdmissionError) int {
	switch ae.Reason {
	case serve.ReasonUnknownTenant:
		return http.StatusNotFound
	case serve.ReasonDraining:
		return http.StatusServiceUnavailable
	default: // queue full, rate limited
		return http.StatusTooManyRequests
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, e ErrorResponse) {
	writeJSON(w, status, e)
}

// Client drives the API from a base URL like "http://127.0.0.1:8080".
type Client struct {
	Base string
	// HTTP is the transport; nil means a client with a 5-minute timeout
	// (submissions block until the batch is served).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 5 * time.Minute}
}

// Submit posts one batch and decodes the results. A rejection comes back
// as a *serve.AdmissionError reconstructed from the wire, so callers can
// errors.Is(err, serve.ErrAdmission) exactly as in-process.
func (c *Client) Submit(ctx context.Context, tenant string, specs []JobSpec) (*SubmitResponse, error) {
	body, err := json.Marshal(SubmitRequest{Tenant: tenant, Requests: specs})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/submit", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if json.Unmarshal(raw, &e) == nil && e.Reason != "" {
			return nil, &serve.AdmissionError{Tenant: e.Tenant, Reason: e.Reason, Requests: len(specs)}
		}
		return nil, fmt.Errorf("httpapi: submit: %s: %s: %w", resp.Status, bytes.TrimSpace(raw), ErrStatus)
	}
	var out SubmitResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("httpapi: submit: bad response body: %w", err)
	}
	return &out, nil
}

// Stats fetches the server's accounting snapshot.
func (c *Client) Stats(ctx context.Context) (*serve.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("httpapi: stats: %s: %w", resp.Status, ErrStatus)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Healthy reports whether the daemon answers /healthz with 200.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
