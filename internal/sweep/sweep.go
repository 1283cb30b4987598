// Package sweep is the parallel sweep engine for the deterministic
// simulators: it executes batches of cluster.Run requests concurrently across a worker pool, coalesces identical in-flight
// requests singleflight-style, and memoizes completed results in a bounded
// LRU cache behind a canonical content-addressed key (key.go).
//
// Every figure and table of the reproduction is a sweep of independent,
// deterministic simulation runs — cmd/replicate walks node counts,
// internal/experiments walks benchmarks × fault rates × replication sets —
// and the simulations are hermetic (cluster.Run builds all mutable state
// per run; injector draws are pure functions of (seed, task, attempt) —
// audited in DESIGN.md §11 and locked by TestRunBatchMatchesSerial under
// -race), so fanning them out and replaying repeats from the cache changes
// wall-clock only, never a result: batch outputs are bitwise identical to
// a serial loop of cluster.Run in request order.
//
// The engine is the substrate the future multi-tenant appfitd batcher sits
// on (ROADMAP item 2): repeat traffic — the same table regenerated, the
// same baseline shared between figures — is answered from the cache for
// the cost of a digest.
//
// Every request carries a flat per-stage Metrics struct (queue wait, cache
// lookup, simulation, total — one field per pipeline stage, CSV-exportable
// via WriteMetricsCSV) and the engine keeps aggregate cache Stats.
package sweep

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"appfit/internal/cluster"
	"appfit/internal/simtime"
)

// ErrRequest is the sentinel wrapped by every RequestError, so drivers can
// errors.Is a batch failure without knowing which request died.
var ErrRequest = errors.New("sweep: request failed")

// ErrPanic is wrapped by the error of a request whose simulation panicked.
// The engine recovers the panic, so that request fails alone: its coalesced
// waiters get the same error, and the engine serves every other request.
var ErrPanic = errors.New("sweep: simulation panicked")

// RequestError names one failed request of a batch: its index, the
// parameters that identify it to a human (benchmark, machine shape, fault
// injection), and the cause. Drivers print it and exit non-zero instead of
// rendering a zero-row table.
type RequestError struct {
	// Index is the request's position in the batch.
	Index int
	// Job and machine identity, snapshotted from the request.
	Name         string
	Nodes, Cores int
	// Err is the underlying simulation error.
	Err error
}

// Error implements error.
func (e *RequestError) Error() string {
	return fmt.Sprintf("sweep: request %d (%s, %d nodes × %d cores): %v",
		e.Index, e.Name, e.Nodes, e.Cores, e.Err)
}

// Unwrap makes errors.Is/As see the cause.
func (e *RequestError) Unwrap() error { return e.Err }

// Is reports true for the package sentinel.
func (e *RequestError) Is(target error) bool { return target == ErrRequest }

// Request is one cluster simulation of a sweep batch. A bare literal hashes
// its job by value on every submission; (*Prepared).Request hashes it once.
type Request struct {
	Job    cluster.Job
	Config cluster.Config
	// prep is the Prepared the request came from, nil for a bare literal.
	prep *Prepared
}

// Response is one request's outcome: the simulation result (bitwise what a
// serial cluster.Run of the same request returns), the error if it failed,
// and the request's flat pipeline timing.
type Response struct {
	Result  cluster.Result
	Err     error
	Metrics Metrics
}

// Metrics is the flat per-request timing struct: one field per pipeline
// stage, wall-clock, CSV-friendly. Stages that a request skips (the sim, on
// a cache hit) are zero. The JSON keys are the service wire's
// (serve.Metrics embeds this record).
type Metrics struct {
	// Index is the request's position in its batch (0 for RunRequest).
	Index int `json:"index"`
	// Name is the request's job name.
	Name string `json:"name"`
	// Key is the hex prefix of the content-addressed cache key ("" when
	// the request was uncacheable).
	Key string `json:"key,omitempty"`
	// QueueWait is submit → worker pickup.
	QueueWait time.Duration `json:"queue_wait_ns"`
	// CacheLookup is key derivation + cache/in-flight probe.
	CacheLookup time.Duration `json:"cache_lookup_ns"`
	// Sim is the simulation itself (zero on hits; on coalesced requests it
	// is the wait for the in-flight twin to finish).
	Sim time.Duration `json:"sim_ns"`
	// Total is submit → response.
	Total time.Duration `json:"total_ns"`
	// CacheHit marks a memoized result; Coalesced marks a result shared
	// from an identical in-flight request.
	CacheHit  bool `json:"cache_hit"`
	Coalesced bool `json:"coalesced"`
}

// Stats are the engine's cumulative counters.
type Stats struct {
	// Requests counts everything submitted (RunRequest and RunBatch).
	Requests uint64
	// Hits / Misses split the cacheable requests that probed the cache.
	Hits, Misses uint64
	// Coalesced counts requests answered by an identical in-flight twin.
	Coalesced uint64
	// Uncacheable counts requests with no derivable key (unknown injector);
	// they execute every time.
	Uncacheable uint64
	// Evictions counts cache entries dropped to stay within the bound.
	Evictions uint64
	// Entries is the current cache population.
	Entries int
}

// HitRate returns hits / (hits + misses) in percent, 0 when nothing probed.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return 100 * float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Options shapes an Engine. The zero value is ready to use.
type Options struct {
	// Workers is the worker-pool width for RunBatch; 0 means
	// runtime.GOMAXPROCS(0), <0 means 1 (a serial engine — same results,
	// one goroutine).
	Workers int
	// CacheEntries bounds the LRU results cache; 0 means 4096, <0 disables
	// caching entirely (every request simulates; coalescing still applies).
	CacheEntries int
}

func (o Options) normalized() Options {
	switch {
	case o.Workers == 0:
		o.Workers = runtime.GOMAXPROCS(0)
	case o.Workers < 0:
		o.Workers = 1
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 4096
	}
	return o
}

// Engine executes sweep requests. It is safe for concurrent use; one
// engine can back every driver of a process so they share the cache.
type Engine struct {
	opts Options

	// now is the engine's wall clock, read only for the per-request stage
	// Metrics (queue wait, cache lookup, sim, total) — service
	// observability, never simulation time, which stays virtual
	// (simtime). Injected so tests can drive the metrics deterministically.
	now func() time.Time

	mu sync.Mutex
	// cache is the bounded results LRU, nil when disabled. // guarded by mu
	cache *lru
	// inflight is the singleflight table. // guarded by mu
	inflight map[[32]byte]*call

	requests, hits, misses, coalesced, uncacheable, evictions atomic.Uint64
}

// call is one in-flight execution other requests with the same key wait on.
type call struct {
	done chan struct{}
	val  cluster.Result
	err  error
}

// New returns an Engine with opts applied.
func New(opts Options) *Engine {
	opts = opts.normalized()
	e := &Engine{
		opts:     opts,
		now:      time.Now, //lint:simdet wall-clock stage metrics only; results never depend on it
		inflight: make(map[[32]byte]*call),
	}
	if opts.CacheEntries > 0 {
		e.cache = newLRU(opts.CacheEntries)
	}
	return e
}

// Workers returns the engine's resolved worker-pool width.
func (e *Engine) Workers() int { return e.opts.Workers }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Requests:    e.requests.Load(),
		Hits:        e.hits.Load(),
		Misses:      e.misses.Load(),
		Coalesced:   e.coalesced.Load(),
		Uncacheable: e.uncacheable.Load(),
		Evictions:   e.evictions.Load(),
	}
	e.mu.Lock()
	if e.cache != nil {
		s.Entries = e.cache.len()
	}
	e.mu.Unlock()
	return s
}

// do executes fn once per key across all concurrent callers, memoizing the
// result: cache hit → stored value; identical request in flight → wait and
// share; otherwise run fn and store. The returned flags report which path
// answered. fn's result must be immutable or cloned by the caller.
//
// ctx governs only the waiting: a coalesced waiter whose ctx expires
// detaches with ctx.Err() while the shared in-flight execution keeps
// running for everyone else (and still populates the cache). The executing
// caller itself runs fn to completion — a simulation is never torn down
// mid-flight on behalf of one cancelled requester. A panic in fn fails the
// caller and every waiter with ErrPanic, and is never cached; the in-flight
// entry goes on every path, so the next request for key runs afresh.
func (e *Engine) do(ctx context.Context, key [32]byte, fn func() (cluster.Result, error)) (val cluster.Result, err error, hit, coalesced bool) {
	e.mu.Lock()
	if e.cache != nil {
		if v, ok := e.cache.get(key); ok {
			e.mu.Unlock()
			e.hits.Add(1)
			return v, nil, true, false
		}
	}
	if c, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		select {
		case <-c.done:
			e.coalesced.Add(1)
			return c.val, c.err, false, true
		case <-ctx.Done():
			return cluster.Result{}, ctx.Err(), false, false
		}
	}
	c := &call{done: make(chan struct{})}
	e.inflight[key] = c
	e.mu.Unlock()
	e.misses.Add(1)

	defer func() {
		e.mu.Lock()
		delete(e.inflight, key)
		if c.err == nil && e.cache != nil {
			e.evictions.Add(uint64(e.cache.put(key, c.val)))
		}
		e.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = recovered(fn)
	return c.val, c.err, false, false
}

// recovered runs fn, turning a panic into an ErrPanic error: one recover
// per simulation, so a bug that one request reaches fails that request
// instead of the process.
func recovered[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrPanic, p)
		}
	}()
	return fn()
}

// run simulates r: on its Prepared's Layout when the request still carries
// the prepared tasks, else through cluster.Run. Either way the result is
// bitwise what cluster.Run(r.Job, r.Config) returns; the Layout itself lays
// the job out afresh for a node count it was not built for. A job that
// fails validation leaves no layout, and cluster.Run reports the error.
func (r Request) run() (cluster.Result, error) {
	if p := r.prep; p.owns(r.Job.Tasks) {
		p.layOnce.Do(func() { p.lay, _ = cluster.NewLayout(p.job, r.Config.Normalized().Nodes) })
		if p.lay != nil {
			return p.lay.Run(r.Config)
		}
	}
	return cluster.Run(r.Job, r.Config)
}

// runOne executes one request through the cache/singleflight path, filling
// the per-stage metrics. enqueued is when the request entered the engine. A
// ctx already expired at pickup fails the request without simulating — a
// cancelled request stops waiting in the queue instead of running to
// completion.
func (e *Engine) runOne(ctx context.Context, idx int, req Request, enqueued time.Time) Response {
	e.requests.Add(1)
	started := e.now()
	m := Metrics{Index: idx, Name: req.Job.Name, QueueWait: started.Sub(enqueued)}
	if err := ctx.Err(); err != nil {
		m.Total = e.now().Sub(enqueued)
		cfg := req.Config.Normalized()
		return Response{Err: &RequestError{Index: idx, Name: req.Job.Name,
			Nodes: cfg.Nodes, Cores: cfg.CoresPerNode, Err: err}, Metrics: m}
	}

	key, cacheable := req.key()
	m.CacheLookup = e.now().Sub(started)
	if cacheable {
		var hx [16]byte
		hex.Encode(hx[:], key[:8])
		m.Key = string(hx[:])
	}

	var res cluster.Result
	var err error
	simStart := e.now()
	if !cacheable {
		e.uncacheable.Add(1)
		res, err = recovered(req.run)
	} else {
		var v cluster.Result
		var hit, coal bool
		v, err, hit, coal = e.do(ctx, key, req.run)
		m.CacheHit, m.Coalesced = hit, coal
		if err == nil {
			res = cloneResult(v)
		}
	}
	if !m.CacheHit {
		m.Sim = e.now().Sub(simStart)
	}
	m.Total = e.now().Sub(enqueued)
	if err != nil {
		cfg := req.Config.Normalized()
		err = &RequestError{Index: idx, Name: req.Job.Name,
			Nodes: cfg.Nodes, Cores: cfg.CoresPerNode, Err: err}
	}
	return Response{Result: res, Err: err, Metrics: m}
}

// cloneResult deep-copies the result's mutable slice so cached entries can
// never be corrupted through a caller's hands.
func cloneResult(r cluster.Result) cluster.Result {
	if r.NodeBusy != nil {
		r.NodeBusy = append([]simtime.Time(nil), r.NodeBusy...)
	}
	return r
}

// RunRequest executes one request under ctx: an already-expired ctx fails
// the request without simulating, and a ctx that expires while the request
// waits on an identical in-flight twin detaches the waiter (the twin keeps
// running and still populates the cache). It is the single-request entry
// the service layer (internal/serve) dispatches through, so every queued
// request it drops on cancellation carries its own deadline.
func (e *Engine) RunRequest(ctx context.Context, req Request) Response {
	return e.runOne(ctx, 0, req, e.now())
}

// RunBatch executes a batch across the worker pool and returns one
// Response per request, in request order, each bitwise identical to what a
// serial cluster.Run of that request returns. The error is the first
// failure in request order (a *RequestError naming the request), nil when
// every request succeeded; responses for failed requests carry their own
// errors too, so drivers can report all failures or just die on the first.
//
// ctx cancellation is a fail-fast, not a teardown: requests not yet picked
// up (or still waiting on a coalesced twin) fail with ctx.Err() wrapped in
// their RequestError, while simulations already executing run to
// completion — their results stay valid and cached.
//
// Workers derive each request's key themselves: O(config) for a Prepared
// job, which is what every in-repo caller submits. Requests sharing a bare
// job re-hash its tasks once per request.
func (e *Engine) RunBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	out := make([]Response, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	enqueued := e.now()
	workers := e.opts.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = e.runOne(ctx, i, reqs[i], enqueued)
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i := range out {
		if out[i].Err != nil {
			return out, out[i].Err
		}
	}
	return out, nil
}
