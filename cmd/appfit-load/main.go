// Command appfit-load is the closed-loop multi-tenant load generator for
// appfitd: per tenant it runs a configurable number of worker loops, each
// submitting one request at a time and (optionally) pacing to an offered
// rate, for a fixed duration:
//
//	appfit-load -addr http://127.0.0.1:8080 \
//	    -tenants 'heavy=1/10/0,light=1/1/0' -bench stream -duration 5s
//
// The tenant spec is name=weight/concurrency/rps: weight is informational
// (printed and used by -check-fairness as the expected completion share),
// concurrency is the closed-loop worker count, rps the per-tenant offered
// rate (0 = as fast as the loop turns, i.e. saturation). Each submission
// carries -batch requests (default 1): a deeper batch multiplies the
// tenant's standing backlog and amortizes the HTTP round trip, which is
// what keeps the server — not the client — the bottleneck when checking
// fairness on a small machine. After the run it
// prints per-tenant sustained req/s and p50/p95/p99 end-to-end latency,
// plus the server's own accounting, and optionally:
//
//	-csv FILE             tenant-labeled per-request service metrics
//	-check-completions    exit non-zero unless every tenant completed work
//	-check-fairness F     exit non-zero if any tenant's completion share
//	                      strays more than a factor F from its weight share
//	                      (only meaningful when the server is saturated)
//
// Rejected submissions (rate-limited, queue full) are counted, not
// retried: admission control is the back-pressure under test.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"appfit/internal/serve"
	"appfit/internal/serve/httpapi"
	"appfit/internal/stats"
)

// loadTenant is one tenant's generator config: spec name=weight/conc/rps.
type loadTenant struct {
	name   string
	weight int
	conc   int
	rps    float64
}

// tenantResult accumulates one tenant's observations across its workers.
type tenantResult struct {
	mu        sync.Mutex
	completed int
	failed    int
	rejected  int
	latencies []float64 // seconds end-to-end per completed request
	metrics   []serve.Metrics
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "appfitd base URL")
	tenantsFlag := flag.String("tenants", "default=1/4/0",
		"load spec: name=weight/concurrency/rps,... (rps 0 = closed-loop saturation)")
	benchName := flag.String("bench", "stream", "benchmark every request names")
	scale := flag.String("scale", "tiny", "workload scale")
	nodes := flag.Int("nodes", 1, "simulated nodes per request")
	cores := flag.Int("cores", 16, "cores per node")
	rate := flag.Float64("rate", 0, "per-execution fault probability")
	seed := flag.Uint64("seed", 42, "fault injection seed (nonzero: every request carries a fault rate)")
	vary := flag.Bool("vary", true,
		"vary the fault seed per request so requests are distinct jobs, not one cached result")
	batch := flag.Int("batch", 1, "requests per submission (a deeper batch keeps the tenant's queue backlogged)")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	csvPath := flag.String("csv", "", "write tenant-labeled service metrics (CSV) to this file")
	checkCompletions := flag.Bool("check-completions", false,
		"exit non-zero unless every tenant completed at least one request")
	checkFairness := flag.Float64("check-fairness", 0,
		"exit non-zero if a tenant's completion share is off its weight share by more than this factor")
	flag.Parse()

	tenants, err := parseLoadTenants(*tenantsFlag)
	if err != nil {
		fatal(err)
	}
	if *batch < 1 {
		fatal(fmt.Errorf("-batch %d: want at least 1", *batch))
	}
	if *seed == 0 {
		fatal(errors.New("-seed 0: appfitd refuses a fault rate without a seed"))
	}
	totalConc := 0
	for _, t := range tenants {
		totalConc += t.conc
	}
	// One persistent connection per worker: the default transport keeps
	// only 2 idle conns per host, so a 40-worker closed loop would dial a
	// fresh connection for nearly every request and measure TCP churn
	// instead of the service.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = totalConc + 4
	transport.MaxIdleConnsPerHost = totalConc + 4
	client := &httpapi.Client{
		Base: strings.TrimSuffix(*addr, "/"),
		HTTP: &http.Client{Transport: transport, Timeout: 5 * time.Minute},
	}
	if !client.Healthy(context.Background()) {
		fatal(fmt.Errorf("server at %s is not healthy", *addr))
	}

	// Varying the seed makes every request a distinct simulation (distinct
	// cache key): with -vary=false the run measures the cached-hit path
	// instead of sustained simulation throughput.
	results := make(map[string]*tenantResult, len(tenants))
	for _, t := range tenants {
		results[t.name] = &tenantResult{}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	var wg sync.WaitGroup
	var reqSeq struct {
		mu sync.Mutex
		n  uint64
	}
	nextSeed := func() uint64 {
		if !*vary {
			return *seed
		}
		reqSeq.mu.Lock()
		defer reqSeq.mu.Unlock()
		reqSeq.n++
		return *seed + reqSeq.n
	}
	start := time.Now()
	for _, t := range tenants {
		res := results[t.name]
		interval := time.Duration(0)
		if t.rps > 0 {
			// Pace each worker so the tenant offers rps requests/s total;
			// a submission carries -batch requests.
			interval = time.Duration(float64(time.Second) * float64(t.conc*(*batch)) / t.rps)
		}
		for w := 0; w < t.conc; w++ {
			wg.Add(1)
			go func(t loadTenant) {
				defer wg.Done()
				for ctx.Err() == nil {
					specs := make([]httpapi.JobSpec, *batch)
					for i := range specs {
						specs[i] = httpapi.JobSpec{
							Bench: *benchName, Scale: *scale,
							Nodes: *nodes, Cores: *cores,
							Rate: orVaryRate(*rate), Seed: nextSeed(),
						}
					}
					t0 := time.Now()
					resp, err := client.Submit(ctx, t.name, specs)
					lat := time.Since(t0)
					res.mu.Lock()
					switch {
					case err == nil:
						// One end-to-end latency sample per round trip: with
						// -batch > 1 the percentiles are batch latencies.
						res.latencies = append(res.latencies, lat.Seconds())
						for _, r := range resp.Results {
							if r.Err == "" {
								res.completed++
								res.metrics = append(res.metrics, r.Metrics)
							} else {
								res.failed++
							}
						}
					case isAdmission(err):
						// All-or-nothing admission: the whole batch bounced.
						res.rejected += len(specs)
					case ctx.Err() != nil:
						// Run over: an in-flight batch cut off by the
						// deadline is neither failed nor rejected.
					default:
						res.failed += len(specs)
					}
					res.mu.Unlock()
					if interval > 0 {
						select {
						case <-time.After(interval):
						case <-ctx.Done():
						}
					}
				}
			}(t)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	table := stats.NewTable("tenant", "weight", "conc", "completed", "rejected", "failed",
		"req/s", "p50 ms", "p95 ms", "p99 ms")
	totalCompleted := 0
	for _, t := range tenants {
		res := results[t.name]
		rps := float64(res.completed) / elapsed.Seconds()
		table.AddRow(t.name, t.weight, t.conc, res.completed, res.rejected, res.failed,
			rps,
			stats.Percentile(res.latencies, 50)*1e3,
			stats.Percentile(res.latencies, 95)*1e3,
			stats.Percentile(res.latencies, 99)*1e3)
		totalCompleted += res.completed
	}
	fmt.Printf("appfit-load: %s for %v against %s\n", *benchName, elapsed.Round(time.Millisecond), *addr)
	fmt.Println(table)

	if st, err := client.Stats(context.Background()); err == nil {
		fmt.Printf("server: queued %d inflight %d, engine %d requests / %d cache hits\n",
			st.Queued, st.Inflight, st.Engine.Requests, st.Engine.Hits)
		if err := st.Accounting(); err != nil {
			fatal(err)
		}
	} else {
		fmt.Fprintf(os.Stderr, "appfit-load: stats: %v\n", err)
	}

	if *csvPath != "" {
		var all []serve.Metrics
		for _, t := range tenants {
			all = append(all, results[t.name].metrics...)
		}
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := serve.WriteMetricsCSV(f, all); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *checkCompletions {
		for _, t := range tenants {
			if results[t.name].completed == 0 {
				fatal(fmt.Errorf("check-completions: tenant %q completed no requests", t.name))
			}
		}
		fmt.Printf("check-completions: all %d tenants completed work\n", len(tenants))
	}
	if *checkFairness > 0 {
		if err := fairness(tenants, results, totalCompleted, *checkFairness); err != nil {
			fatal(err)
		}
	}
}

// fairness checks each tenant's completion share against its weight share:
// the ratio share/weightShare must stay within [1/factor, factor]. Only
// meaningful when the server (not the offered load) is the bottleneck.
func fairness(tenants []loadTenant, results map[string]*tenantResult, total int, factor float64) error {
	if total == 0 {
		return fmt.Errorf("check-fairness: no completions at all")
	}
	weightSum := 0
	for _, t := range tenants {
		weightSum += t.weight
	}
	for _, t := range tenants {
		share := float64(results[t.name].completed) / float64(total)
		want := float64(t.weight) / float64(weightSum)
		ratio := share / want
		if ratio < 1/factor || ratio > factor {
			return fmt.Errorf("check-fairness: tenant %q completed share %.3f vs weight share %.3f (ratio %.2f outside [%.2f, %.2f])",
				t.name, share, want, ratio, 1/factor, factor)
		}
		fmt.Printf("check-fairness: tenant %-10s share %.3f / weight share %.3f (ratio %.2f)\n",
			t.name, share, want, ratio)
	}
	return nil
}

// orVaryRate keeps requests cacheable but distinct: with a zero fault rate
// the per-request seed would not enter the cache key (no injector), so a
// tiny fixed rate is injected whenever the caller asked for none. The
// simulation outcome is virtually always fault-free at 1e-9.
func orVaryRate(rate float64) float64 {
	if rate > 0 {
		return rate
	}
	return 2e-9
}

func isAdmission(err error) bool { return errors.Is(err, serve.ErrAdmission) }

// parseLoadTenants parses name=weight/concurrency/rps entries.
func parseLoadTenants(spec string) ([]loadTenant, error) {
	var out []loadTenant
	seen := map[string]bool{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		t := loadTenant{weight: 1, conc: 1}
		name, rest, hasParams := strings.Cut(entry, "=")
		t.name = strings.TrimSpace(name)
		if t.name == "" {
			return nil, fmt.Errorf("load spec %q: empty tenant name", entry)
		}
		if seen[t.name] {
			return nil, fmt.Errorf("load spec: duplicate tenant %q", t.name)
		}
		seen[t.name] = true
		if hasParams {
			parts := strings.Split(rest, "/")
			if len(parts) > 3 {
				return nil, fmt.Errorf("load spec %q: want name=weight[/concurrency[/rps]]", entry)
			}
			for i, p := range parts {
				p = strings.TrimSpace(p)
				if p == "" {
					continue
				}
				switch i {
				case 0:
					w, err := strconv.Atoi(p)
					if err != nil || w < 1 {
						return nil, fmt.Errorf("load spec %q: bad weight %q", entry, p)
					}
					t.weight = w
				case 1:
					c, err := strconv.Atoi(p)
					if err != nil || c < 1 {
						return nil, fmt.Errorf("load spec %q: bad concurrency %q", entry, p)
					}
					t.conc = c
				case 2:
					r, err := strconv.ParseFloat(p, 64)
					if err != nil || r < 0 {
						return nil, fmt.Errorf("load spec %q: bad rps %q", entry, p)
					}
					t.rps = r
				}
			}
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("load spec %q names no tenants", spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "appfit-load:", err)
	os.Exit(1)
}
