// Package serve wraps the sweep engine as a long-running multi-tenant
// service: the "millions of users" axis of the north star, made concrete
// as admission control in front of per-tenant bounded queues drained by
// deficit-round-robin fair scheduling (DESIGN.md §12).
//
// The pipeline per request is admission → tenant queue → DRR dispatch →
// engine. Admission fails fast — a request that will not be served soon is
// rejected at the door with a named *AdmissionError (wrapping ErrAdmission,
// carrying tenant and reason) instead of timing out deep in a queue:
// unknown tenant, server draining, tenant queue at capacity, or the
// tenant's token bucket empty. Admitted requests wait in their tenant's
// FIFO queue; service workers pick the next request by deficit round robin
// over the active tenants, so a tenant offering 10× everyone else's load
// gets its configured weight share, not 10× the machine — heavy tenants
// queue behind their own backlog, light tenants never starve.
//
// Request deadlines thread all the way down: a Submit context that expires
// while requests are queued fails them at dispatch without simulating
// (sweep.Engine.RunRequest re-checks, and a coalesced waiter detaches
// without cancelling the shared in-flight execution). Every request carries
// a service Metrics record — the engine's sweep.Metrics plus tenant id and
// admission wait — exported through the engine's CSV row encoder.
//
// Shutdown is a graceful drain: Drain rejects new admissions, waits for
// every queued and in-flight request to finish, then stops the workers.
// Stats exposes per-tenant admission accounting whose invariant
// (admitted = completed + failed + queued + inflight) Accounting verifies —
// the check `make check-serve` runs after a load run.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"appfit/internal/cluster"
	"appfit/internal/sweep"
)

// ErrAdmission is the sentinel wrapped by every AdmissionError, so callers
// can errors.Is a rejection without knowing which gate fired.
var ErrAdmission = errors.New("serve: admission rejected")

// Admission rejection reasons carried by AdmissionError.
const (
	ReasonUnknownTenant = "unknown tenant"
	ReasonDraining      = "draining"
	ReasonQueueFull     = "queue full"
	ReasonRateLimited   = "rate limited"
)

// AdmissionError names one rejected submission: the tenant, the gate that
// rejected it, and how many requests were turned away. Rejected requests
// fail fast — nothing is queued, nothing simulates.
type AdmissionError struct {
	Tenant   string `json:"tenant"`
	Reason   string `json:"reason"`
	Requests int    `json:"requests"`
}

// Error implements error.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("serve: admission rejected: tenant %q: %s (%d requests)",
		e.Tenant, e.Reason, e.Requests)
}

// Is reports true for the package sentinel.
func (e *AdmissionError) Is(target error) bool { return target == ErrAdmission }

// TenantConfig declares one tenant of the service.
type TenantConfig struct {
	// Name identifies the tenant on Submit; must be non-empty and unique.
	Name string
	// Weight is the tenant's DRR share relative to the other tenants
	// (default 1, at most 2^20): with weights 3 and 1 a saturated server
	// completes work 3:1.
	Weight int
	// Rate is the token-bucket refill in admitted requests per second;
	// 0 means unlimited (no rate gate).
	Rate float64
	// Burst is the bucket capacity (default: Rate rounded up, minimum 1,
	// at most math.MaxInt32); only meaningful with Rate > 0.
	Burst int
	// QueueCap bounds the tenant's queue; a batch that would push the
	// queue past it is rejected whole (default DefaultQueueCap).
	QueueCap int
}

// DefaultQueueCap is the queue bound of a tenant that configures none.
const DefaultQueueCap = 1024

// maxShare bounds a tenant's weight and the DRR quantum, so the credit a
// visit adds (weight × quantum ≤ 2^40) can never wrap the deficit: a
// wrapped deficit never covers the head, and drr.next would spin forever.
const maxShare = 1 << 20

func (c TenantConfig) normalized() (TenantConfig, error) {
	if c.Name == "" {
		return c, fmt.Errorf("serve: tenant with empty name: %w", ErrConfig)
	}
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.Weight > maxShare {
		return c, fmt.Errorf("serve: tenant %q: weight %d above %d: %w", c.Name, c.Weight, maxShare, ErrConfig)
	}
	if !(c.Rate >= 0) || math.IsInf(c.Rate, 1) {
		return c, fmt.Errorf("serve: tenant %q: rate %v is not a finite number ≥ 0: %w", c.Name, c.Rate, ErrConfig)
	}
	if c.Burst <= 0 {
		// Capped before the conversion: int of a rate ≥ 2^63 is negative.
		c.Burst = int(min(c.Rate, math.MaxInt32-1)) + 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	return c, nil
}

// Options shapes a Server.
type Options struct {
	// Tenants declares the tenant set; at least one is required.
	Tenants []TenantConfig
	// Engine is the sweep engine to serve; nil builds one from
	// EngineOptions so a Server can be free-standing.
	Engine *sweep.Engine
	// EngineOptions shapes the engine when Engine is nil.
	EngineOptions sweep.Options
	// Workers is the number of service workers dispatching from the queues
	// into the engine; 0 means the engine's worker-pool width.
	Workers int
	// Quantum is the DRR deficit added per weight unit each time the
	// scheduler visits a tenant, in task-cost units (default 64, at most
	// 2^20). Larger quanta serve longer per-tenant bursts between
	// switches; fairness over a window is unchanged.
	Quantum int
}

// Response is one served request's outcome: the simulation result, the
// error if it failed (admission errors never reach here — rejected batches
// return from Submit with no responses), and the service metrics.
type Response struct {
	Result  cluster.Result
	Err     error
	Metrics Metrics
}

// executor is the dispatch seam between the service and the engine; tests
// substitute a stub to control service order and timing.
type executor interface {
	run(ctx context.Context, req sweep.Request) sweep.Response
}

type engineExec struct{ eng *sweep.Engine }

func (x engineExec) run(ctx context.Context, req sweep.Request) sweep.Response {
	return x.eng.RunRequest(ctx, req)
}

// Server is the multi-tenant service. Safe for concurrent use; one Server
// fronts one engine.
type Server struct {
	eng  *sweep.Engine
	exec executor

	mu              sync.Mutex
	cond            *sync.Cond
	tenants         map[string]*tenant
	sched           drr
	queued          int
	inflight        int
	draining        bool
	stopped         bool
	drainDone       chan struct{}
	rejectedUnknown uint64

	workers sync.WaitGroup

	// now and onDispatch are test seams: a fake clock for the token
	// buckets and a hook observing the DRR dispatch order.
	now        func() time.Time
	onDispatch func(tenant string)
}

// ErrConfig is the sentinel wrapped by every New rejection (no tenants,
// duplicate tenants, bad per-tenant parameters), so daemons can errors.Is
// a bad configuration apart from runtime failures.
var ErrConfig = errors.New("serve: invalid configuration")

// ErrAccounting is the sentinel wrapped by Stats.Accounting when a
// tenant's books do not balance — always a service bug, never load.
var ErrAccounting = errors.New("serve: accounting mismatch")

// New starts a Server with opts' tenants and workers running.
func New(opts Options) (*Server, error) {
	if len(opts.Tenants) == 0 {
		return nil, fmt.Errorf("serve: no tenants configured: %w", ErrConfig)
	}
	eng := opts.Engine
	if eng == nil {
		eng = sweep.New(opts.EngineOptions)
	}
	quantum := opts.Quantum
	if quantum <= 0 {
		quantum = 64
	}
	if quantum > maxShare {
		return nil, fmt.Errorf("serve: quantum %d above %d: %w", quantum, maxShare, ErrConfig)
	}
	s := &Server{
		eng:       eng,
		exec:      engineExec{eng},
		tenants:   make(map[string]*tenant, len(opts.Tenants)),
		sched:     drr{quantum: int64(quantum)},
		drainDone: make(chan struct{}),
		now:       time.Now,
	}
	s.cond = sync.NewCond(&s.mu)
	for _, tc := range opts.Tenants {
		tc, err := tc.normalized()
		if err != nil {
			return nil, err
		}
		if _, dup := s.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant %q: %w", tc.Name, ErrConfig)
		}
		s.tenants[tc.Name] = &tenant{
			name:     tc.Name,
			weight:   tc.Weight,
			rate:     tc.Rate,
			burst:    float64(tc.Burst),
			tokens:   float64(tc.Burst),
			last:     s.now(),
			queueCap: tc.QueueCap,
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = eng.Workers()
	}
	s.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Submit runs a batch of requests for one tenant and blocks until every
// request has a response (in request order). Admission is all-or-nothing
// per batch: a rejection returns (nil, *AdmissionError) with nothing
// queued. The returned error is otherwise the first per-request failure in
// batch order, nil when all succeeded. ctx bounds the whole batch: on
// expiry, requests still waiting in the queue fail fast with ctx's error
// instead of simulating.
func (s *Server) Submit(ctx context.Context, tenantName string, reqs []sweep.Request) ([]Response, error) {
	submitted := s.now()
	if len(reqs) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	t, ok := s.tenants[tenantName]
	if !ok {
		s.rejectedUnknown += uint64(len(reqs))
		s.mu.Unlock()
		return nil, &AdmissionError{Tenant: tenantName, Reason: ReasonUnknownTenant, Requests: len(reqs)}
	}
	if s.draining {
		return nil, s.rejectAndUnlock(t, ReasonDraining, len(reqs))
	}
	if len(t.queue)+len(reqs) > t.queueCap {
		return nil, s.rejectAndUnlock(t, ReasonQueueFull, len(reqs))
	}
	if t.rate > 0 {
		now := s.now()
		t.tokens += t.rate * now.Sub(t.last).Seconds()
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
		t.last = now
		if t.tokens < float64(len(reqs)) {
			return nil, s.rejectAndUnlock(t, ReasonRateLimited, len(reqs))
		}
		t.tokens -= float64(len(reqs))
	}
	t.admitted += uint64(len(reqs))
	enqueued := s.now()
	resps := make([]Response, len(reqs))
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	for i := range reqs {
		s.sched.push(t, &item{
			ctx:       ctx,
			t:         t,
			req:       reqs[i],
			index:     i,
			submitted: submitted,
			enqueued:  enqueued,
			resp:      &resps[i],
			wg:        &wg,
		})
	}
	s.queued += len(reqs)
	s.mu.Unlock()
	s.cond.Broadcast()
	wg.Wait()
	for i := range resps {
		if resps[i].Err != nil {
			return resps, resps[i].Err
		}
	}
	return resps, nil
}

// rejectAndUnlock records a rejection and builds its error; called with
// s.mu held, releases it.
func (s *Server) rejectAndUnlock(t *tenant, reason string, n int) error {
	t.rejected += uint64(n)
	s.mu.Unlock()
	return &AdmissionError{Tenant: t.name, Reason: reason, Requests: n}
}

// worker dispatches queued requests in DRR order into the engine.
func (s *Server) worker() {
	defer s.workers.Done()
	s.mu.Lock()
	for {
		if it := s.sched.next(); it != nil {
			t := it.t
			t.inflight++
			s.inflight++
			s.queued--
			if s.onDispatch != nil {
				s.onDispatch(t.name)
			}
			s.mu.Unlock()
			failed := s.serveItem(it)
			s.mu.Lock()
			t.inflight--
			s.inflight--
			if failed {
				t.failed++
			} else {
				t.completed++
			}
			s.maybeDrainedLocked()
			// Only now may the submitter return: a Stats right after
			// Submit must see the request's books moved.
			it.wg.Done()
			continue
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		s.cond.Wait()
	}
}

// serveItem executes one dequeued request and fills its response slot. A
// request whose context already expired fails without touching the engine
// — it stops waiting in the queue instead of running to completion.
func (s *Server) serveItem(it *item) (failed bool) {
	dispatched := s.now()
	var sr sweep.Response
	if err := it.ctx.Err(); err != nil {
		sr.Err = err
	} else {
		sr = s.exec.run(it.ctx, it.req)
	}
	m := Metrics{Tenant: it.t.name, Metrics: sr.Metrics, AdmissionWait: it.enqueued.Sub(it.submitted)}
	m.Index, m.Name = it.index, it.req.Job.Name
	m.QueueWait = dispatched.Sub(it.enqueued)
	m.Total = s.now().Sub(it.submitted)
	*it.resp = Response{Result: sr.Result, Err: sr.Err, Metrics: m}
	return sr.Err != nil
}

// maybeDrainedLocked closes the drain gate once a draining server has no
// queued or in-flight work left; s.mu is held.
func (s *Server) maybeDrainedLocked() {
	if s.draining && s.queued == 0 && s.inflight == 0 {
		select {
		case <-s.drainDone:
		default:
			close(s.drainDone)
		}
	}
}

// Drain gracefully shuts the server down: new submissions are rejected
// with ReasonDraining, every already-admitted request is served to
// completion, then the workers stop. ctx bounds the wait; on expiry the
// server stays draining (still rejecting) with its error returned, and
// Drain may be called again to keep waiting.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.maybeDrainedLocked()
	done := s.drainDone
	s.mu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.workers.Wait()
	return nil
}

// TenantStats is one tenant's admission accounting. Every admitted request
// is eventually exactly one of completed/failed, or still queued/inflight:
// Stats.Accounting checks the invariant.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Weight    int    `json:"weight"`
	Queued    int    `json:"queued"`
	Inflight  int    `json:"inflight"`
	Admitted  uint64 `json:"admitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
}

// Stats is a snapshot of the server: per-tenant accounting (sorted by
// tenant name), global queue state, and the engine's cache counters.
type Stats struct {
	Tenants         []TenantStats `json:"tenants"`
	Draining        bool          `json:"draining"`
	Queued          int           `json:"queued"`
	Inflight        int           `json:"inflight"`
	RejectedUnknown uint64        `json:"rejected_unknown"`
	Engine          sweep.Stats   `json:"engine"`
}

// Stats returns a consistent snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Draining:        s.draining,
		Queued:          s.queued,
		Inflight:        s.inflight,
		RejectedUnknown: s.rejectedUnknown,
		Tenants:         make([]TenantStats, 0, len(s.tenants)),
	}
	for _, t := range s.tenants {
		st.Tenants = append(st.Tenants, TenantStats{
			Tenant:    t.name,
			Weight:    t.weight,
			Queued:    len(t.queue),
			Inflight:  t.inflight,
			Admitted:  t.admitted,
			Rejected:  t.rejected,
			Completed: t.completed,
			Failed:    t.failed,
		})
	}
	s.mu.Unlock()
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	st.Engine = s.eng.Stats()
	return st
}

// Accounting verifies the admission invariant per tenant — admitted =
// completed + failed + queued + inflight — and returns an error naming the
// first tenant whose books do not balance. After a clean drain, queued and
// inflight are zero, so admitted must equal completed + failed exactly.
func (st Stats) Accounting() error {
	for _, t := range st.Tenants {
		if t.Admitted != t.Completed+t.Failed+uint64(t.Queued)+uint64(t.Inflight) {
			return fmt.Errorf("serve: accounting mismatch for tenant %q: admitted %d != completed %d + failed %d + queued %d + inflight %d: %w",
				t.Tenant, t.Admitted, t.Completed, t.Failed, t.Queued, t.Inflight, ErrAccounting)
		}
	}
	return nil
}
