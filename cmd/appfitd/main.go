// Command appfitd is the long-running multi-tenant appfit daemon: a sweep
// engine behind admission control and deficit-round-robin fair queueing
// (internal/serve), exposed over HTTP/JSON (internal/serve/httpapi):
//
//	appfitd -addr 127.0.0.1:0 -tenants 'alpha=3,beta=1/100' -workers 4
//
// On startup it prints one line naming the bound address —
// "appfitd: listening on http://HOST:PORT" — which harnesses (appfit-load,
// scripts/check_serve.sh) parse to find a :0-bound daemon. SIGTERM/SIGINT
// triggers the graceful drain: in-flight and queued requests finish, new
// submissions are rejected with 503, the HTTP server shuts down, and the
// final per-tenant accounting prints to stderr. The exit code is non-zero
// if the drain times out or the admission books do not balance
// (admitted != completed + failed), so a supervisor can spot lost work.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"appfit/internal/serve"
	"appfit/internal/serve/httpapi"
	"appfit/internal/sweep"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	tenantsFlag := flag.String("tenants", "default=1",
		"tenant spec: name=weight[/rate[/burst[/cap]]],...")
	workers := flag.Int("workers", 0, "service workers (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache", 0, "results-cache entries (0 = default, negative disables)")
	quantum := flag.Int("quantum", 0, "DRR quantum in task-cost units (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful drain deadline on shutdown")
	flag.Parse()

	tenants, err := serve.ParseTenants(*tenantsFlag)
	if err != nil {
		fatal(err)
	}
	srv, err := serve.New(serve.Options{
		Tenants:       tenants,
		EngineOptions: sweep.Options{Workers: *workers, CacheEntries: *cacheEntries},
		Workers:       *workers,
		Quantum:       *quantum,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("appfitd: listening on http://%s\n", ln.Addr())
	for _, tc := range tenants {
		fmt.Printf("appfitd: tenant %s weight %d rate %s queue cap %d\n",
			tc.Name, max(tc.Weight, 1), rateString(tc), defaultCap(tc.QueueCap))
	}

	// A client gets 10 s to send its headers and an idle keep-alive
	// connection lives 2 minutes, so stalled or abandoned connections cannot
	// pile up. There is no write timeout: a submission blocks until its
	// simulations finish, and those can be long.
	hs := &http.Server{
		Handler:           httpapi.NewHandler(srv),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "appfitd: %s, draining\n", s)
	case err := <-serveErr:
		fatal(err)
	}

	// Drain order matters: the service rejects new admissions first (so
	// /submit answers 503 draining, not connection refused), finishes the
	// admitted work, then the HTTP listener closes once no request is
	// blocked in a handler.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "appfitd: %v\n", err)
		code = 1
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "appfitd: http shutdown: %v\n", err)
		code = 1
	}

	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "appfitd: final accounting (cache hits %d / %d requests)\n",
		st.Engine.Hits, st.Engine.Requests)
	for _, t := range st.Tenants {
		fmt.Fprintf(os.Stderr, "appfitd:   %-12s admitted %-6d completed %-6d failed %-4d rejected %d\n",
			t.Tenant, t.Admitted, t.Completed, t.Failed, t.Rejected)
	}
	if err := st.Accounting(); err != nil {
		fmt.Fprintf(os.Stderr, "appfitd: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

// defaultCap is the queue cap serve will apply, for the banner.
func defaultCap(c int) int {
	if c <= 0 {
		return serve.DefaultQueueCap
	}
	return c
}

func rateString(tc serve.TenantConfig) string {
	if tc.Rate <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%g/s", tc.Rate)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "appfitd:", err)
	os.Exit(1)
}
