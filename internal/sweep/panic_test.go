package sweep

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"appfit/internal/cluster"
	"appfit/internal/fault"
)

// panickingInjector panics on every draw; it is not a fault.Keyer, so its
// requests are uncacheable.
type panickingInjector struct{}

func (panickingInjector) Draw(uint64, int, float64, float64) fault.Outcome { panic("injected panic") }
func (panickingInjector) BitIndex(uint64, int, int64) int64                { return 0 }

// panickingKeyer is a cacheable panickingInjector whose first draw closes
// entered and then holds the simulation in flight until release closes.
type panickingKeyer struct {
	panickingInjector
	entered, release chan struct{}
	once             sync.Once
}

func (p *panickingKeyer) Draw(task uint64, attempt int, pDUE, pSDC float64) fault.Outcome {
	p.once.Do(func() { close(p.entered) })
	<-p.release
	return p.panickingInjector.Draw(task, attempt, pDUE, pSDC)
}

func (p *panickingKeyer) AppendKey(b []byte) []byte { return append(b, "panic"...) }

// waitParked returns once n goroutines wait in do for an in-flight twin.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, "sweep.(*Engine).do(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters parked on the in-flight call", parked, n)
		}
	}
}

// TestPanicFailsRequestAndWaiters: a simulation that panics fails its
// request and every coalesced waiter with ErrPanic instead of killing the
// process or hanging the waiters, leaves no in-flight entry behind and is
// not cached, so the next request for the key simulates again. An
// uncacheable request's panic fails it the same way.
func TestPanicFailsRequestAndWaiters(t *testing.T) {
	inj := &panickingKeyer{entered: make(chan struct{}), release: make(chan struct{})}
	req := Request{Job: testJob(t, "stream", 1), Config: cluster.Config{Nodes: 1, CoresPerNode: 4, Injector: inj}}
	if _, ok := req.key(); !ok {
		t.Fatal("a Keyer injector must be cacheable")
	}
	eng := New(Options{})
	leader, waiter := make(chan Response, 1), make(chan Response, 1)
	go func() { leader <- eng.RunRequest(context.Background(), req) }()
	<-inj.entered
	go func() { waiter <- eng.RunRequest(context.Background(), req) }()
	waitParked(t, 1)
	close(inj.release)

	for _, c := range []struct {
		who       string
		resp      Response
		coalesced bool
	}{{"executing caller", <-leader, false}, {"coalesced waiter", <-waiter, true}} {
		if !errors.Is(c.resp.Err, ErrPanic) || !errors.Is(c.resp.Err, ErrRequest) {
			t.Errorf("%s: err %v, want ErrPanic in a RequestError", c.who, c.resp.Err)
		}
		if c.resp.Metrics.Coalesced != c.coalesced {
			t.Errorf("%s: coalesced %v, want %v", c.who, c.resp.Metrics.Coalesced, c.coalesced)
		}
	}
	eng.mu.Lock()
	inflight := len(eng.inflight)
	eng.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d in-flight entries left after the panic", inflight)
	}

	again := eng.RunRequest(context.Background(), req)
	if !errors.Is(again.Err, ErrPanic) || again.Metrics.CacheHit || again.Metrics.Coalesced {
		t.Fatalf("next request: err %v, metrics %+v; want a fresh simulation failing with ErrPanic", again.Err, again.Metrics)
	}
	if st := eng.Stats(); st.Misses != 2 || st.Coalesced != 1 || st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("stats %+v: want 2 misses, 1 coalesced, nothing cached", st)
	}

	opaque := req
	opaque.Config.Injector = panickingInjector{}
	if _, err := eng.Run(opaque.Job, opaque.Config); !errors.Is(err, ErrPanic) {
		t.Fatalf("uncacheable request: err %v, want ErrPanic", err)
	}
}
