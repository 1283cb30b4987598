package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"appfit/internal/bench"
	"appfit/internal/cluster"
	"appfit/internal/serve"
	"appfit/internal/serve/httpapi"
	"appfit/internal/sweep"
	"appfit/internal/xrand"
)

// The service workloads drive appfitd closed-loop from two clients, one per
// tenant: each sends its next submission when the previous one is answered.
var serveClients = []string{"heavy", "light"}

const (
	poolSeeds    = 3     // fault seeds per shape in the serve-hit pool: 18 x 3 = 54 specs
	missBatch    = 8     // specs per serve-miss submission
	verifyEvery  = 16    // serve-miss re-simulates every 16th answer in-process
	hitSeqLen    = 32768 // serve-hit submissions generated per client; the loop cycles
	missPerSec   = 400   // serve-miss submissions generated per client and second
	daemonShare  = 0.6   // of a traced run's seconds spent on the daemon pass (long enough that serve-miss overflows the cache)
	replayShare  = 0.3   // and on boundary replay; unit loops take the rest
	replayTenant = "heavy"
)

// serveInputs is everything a service workload sends, generated from the
// seed before anything is timed. Same seed, same bytes.
type serveInputs struct {
	// pool is what set-up warms the daemon with: for serve-hit the 54 specs
	// every request is drawn from, for serve-miss the 18 shapes (so the
	// daemon's job memo is warm and the timed phase simulates, not builds).
	pool []httpapi.JobSpec
	// subs[c] is client c's submission sequence.
	subs [][][]httpapi.JobSpec
}

// shapes are the 18 request shapes both workloads draw from: the nine
// Table-I benchmarks at Small, with and without complete replication, under
// a 1% per-execution fault rate, distributed benchmarks on four nodes.
func shapes() []httpapi.JobSpec {
	var out []httpapi.JobSpec
	for _, w := range bench.All() {
		for _, repl := range []bool{false, true} {
			out = append(out, httpapi.JobSpec{
				Bench: w.Name(), Scale: "small", Nodes: jobNodes(w), Rate: 0.01, Replicate: repl,
			})
		}
	}
	return out
}

func genServeInputs(seed uint64, miss bool, seconds float64) *serveInputs {
	rng := xrand.New(xrand.Combine(seed, 0x7365727665))
	in := &serveInputs{subs: make([][][]httpapi.JobSpec, len(serveClients))}
	sh := shapes()
	if !miss {
		for _, s := range sh {
			for k := 0; k < poolSeeds; k++ {
				s.Seed = rng.Uint64() | 1
				in.pool = append(in.pool, s)
			}
		}
		for c := range in.subs {
			in.subs[c] = make([][]httpapi.JobSpec, hitSeqLen)
			for j := range in.subs[c] {
				k := rng.Intn(len(in.pool))
				in.subs[c][j] = in.pool[k : k+1]
			}
		}
		return in
	}
	in.pool = sh
	for i := range in.pool {
		in.pool[i].Seed = rng.Uint64() | 1
	}
	// Every timed request gets a fault seed no other request of the run
	// has, so every one of them is a cache miss.
	next := rng.Uint64() >> 1
	n := max(64, int(missPerSec*seconds))
	for c := range in.subs {
		in.subs[c] = make([][]httpapi.JobSpec, n)
		for j := range in.subs[c] {
			specs := make([]httpapi.JobSpec, missBatch)
			for k := range specs {
				specs[k] = sh[rng.Intn(len(sh))]
				next++
				specs[k].Seed = next
			}
			in.subs[c][j] = specs
		}
	}
	return in
}

// simulate is the in-process reference: the makespan cluster.Run gives the
// spec's request, which the daemon's answer must equal.
func simulate(spec httpapi.JobSpec) (cluster.Result, error) {
	req, err := spec.Request()
	if err != nil {
		return cluster.Result{}, err
	}
	return cluster.Run(req.Job, req.Config)
}

// answer is one request's result as a client saw it, kept for checking.
type answer struct {
	spec     httpapi.JobSpec
	makespan int64
}

// clientLog is what one closed-loop client observed.
type clientLog struct {
	latMS     []float64 // per submission
	attempted int       // requests sent
	failed    int       // transport error, rejection, non-empty err, wrong makespan
	last      time.Time // when its last submission was answered
	sampled   []answer  // answers to re-simulate after the timed phase
	// Collected on a traced run only.
	wire       []serve.Metrics
	overheadUS []float64 // client latency minus the largest server-side total
}

// drive runs client c's closed loop against the service until deadline.
// want maps a spec to its known makespan (serve-hit: checked at once); a
// spec not in it is sampled every verifyEvery-th answer for later.
func drive(ctx context.Context, cl *httpapi.Client, tenant string, subs [][]httpapi.JobSpec,
	deadline time.Time, want map[httpapi.JobSpec]int64, collect bool) *clientLog {
	lg := &clientLog{}
	for j := 0; ctx.Err() == nil && time.Now().Before(deadline); j++ {
		specs := subs[j%len(subs)]
		t0 := time.Now()
		resp, err := cl.Submit(ctx, tenant, specs)
		lat := time.Since(t0)
		lg.last = t0.Add(lat)
		lg.attempted += len(specs)
		if err != nil || len(resp.Results) != len(specs) {
			if ctx.Err() == nil {
				lg.failed += len(specs)
			} else {
				lg.attempted -= len(specs) // interrupted, not failed
			}
			continue
		}
		lg.latMS = append(lg.latMS, float64(lat)/float64(time.Millisecond))
		var slowest time.Duration
		for k, res := range resp.Results {
			n := lg.attempted - len(specs) + k
			if expect, known := want[specs[k]]; res.Err != "" || (known && res.MakespanNS != expect) {
				lg.failed++
			} else if !known && n%verifyEvery == 0 {
				lg.sampled = append(lg.sampled, answer{specs[k], res.MakespanNS})
			}
			slowest = max(slowest, res.Metrics.Total)
			if collect {
				lg.wire = append(lg.wire, res.Metrics)
			}
		}
		if collect {
			lg.overheadUS = append(lg.overheadUS, float64(lat-slowest)/float64(time.Microsecond))
		}
	}
	return lg
}

// loadStats is the outcome of one timed pass of both clients.
type loadStats struct {
	logs      []*clientLog
	wall      time.Duration // start to the last answer
	serverCPU time.Duration
	before    serve.Stats
	after     serve.Stats
}

func (ls *loadStats) attempted() (n int) {
	for _, lg := range ls.logs {
		n += lg.attempted
	}
	return n
}

func (ls *loadStats) failed() (n int) {
	for _, lg := range ls.logs {
		n += lg.failed
	}
	return n
}

func (ls *loadStats) latMS() (all []float64) {
	for _, lg := range ls.logs {
		all = append(all, lg.latMS...)
	}
	return all
}

// load runs the closed loop of every client against t for d and re-simulates
// the sampled answers afterwards, charging mismatches as failures.
func load(ctx context.Context, t *target, in *serveInputs, d time.Duration,
	want map[httpapi.JobSpec]int64, collect bool) (*loadStats, error) {
	ls := &loadStats{logs: make([]*clientLog, len(serveClients))}
	admin := t.client()
	st, err := admin.Stats(ctx)
	if err != nil {
		return nil, err
	}
	ls.before = *st
	cpu0 := t.cpu()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c, tenant := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ls.logs[c] = drive(ctx, t.client(), tenant, in.subs[c], deadline, want, collect)
		}()
	}
	wg.Wait()
	ls.serverCPU = t.cpu() - cpu0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, lg := range ls.logs {
		if lg.last.Sub(start) > ls.wall {
			ls.wall = lg.last.Sub(start)
		}
	}
	if st, err = admin.Stats(ctx); err != nil {
		return nil, err
	}
	ls.after = *st
	for _, lg := range ls.logs {
		for _, a := range lg.sampled {
			if res, err := simulate(a.spec); err != nil || int64(res.Makespan) != a.makespan {
				lg.failed++
			}
		}
	}
	return ls, nil
}

func runServeHit(ctx context.Context, o options) (outcome, error) {
	return runServe(ctx, o, "serve-hit", false)
}

func runServeMiss(ctx context.Context, o options) (outcome, error) {
	return runServe(ctx, o, "serve-miss", true)
}

// runServe is both service workloads. Set-up boots the service, warms it
// with the pool, generates the inputs and computes the reference makespans;
// the timed phase is the two clients' closed loops; afterwards the service
// must drain cleanly on SIGTERM with balanced books.
func runServe(ctx context.Context, o options, name string, miss bool) (outcome, error) {
	var bin string
	var buildS float64
	if !o.quick {
		var err error
		if bin, buildS, err = buildDaemon(ctx); err != nil {
			return outcome{}, err
		}
	}
	var t *target
	defer func() {
		if t != nil {
			t.kill()
		}
	}()
	var in *serveInputs
	var want map[httpapi.JobSpec]int64
	setup, err := timeSetup(o, func() { t.kill() }, func() error {
		var err error
		if o.quick {
			t, err = startInProcess(ctx, o.procs)
		} else {
			t, err = startDaemon(ctx, bin, o.procs)
		}
		if err != nil {
			return err
		}
		in = genServeInputs(o.seed, miss, o.seconds)
		want = make(map[httpapi.JobSpec]int64)
		resp, err := t.client().Submit(ctx, replayTenant, in.pool)
		if err != nil || len(resp.Results) != len(in.pool) {
			return fmt.Errorf("warm-up: %d specs not answered: %w", len(in.pool), err)
		}
		for k, spec := range in.pool {
			ref, err := simulate(spec)
			if err != nil {
				return err
			}
			if got := resp.Results[k]; got.Err != "" || got.MakespanNS != int64(ref.Makespan) {
				return fmt.Errorf("warm-up: %v answered %d ns (%s), in-process run gives %d ns",
					spec, got.MakespanNS, got.Err, ref.Makespan)
			}
			if !miss {
				want[spec] = int64(ref.Makespan)
			}
		}
		return nil
	})
	if err != nil {
		return outcome{}, err
	}

	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d = time.Duration(float64(d) * daemonShare)
	}
	ls, err := load(ctx, t, in, d, want, o.trace)
	if err != nil {
		return outcome{}, err
	}
	rss, stopErr := t.stop()
	out := outcome{attempted: ls.attempted(), failed: ls.failed()}
	rejected := 0.0
	for _, ten := range ls.after.Tenants {
		rejected += float64(ten.Rejected)
	}
	if stopErr != nil || rejected > 0 {
		fmt.Fprintf(o.log, "%s: %v rejected, shutdown: %v\n", name, rejected, stopErr)
		out.failed = out.attempted
	}
	good := float64(out.attempted - out.failed)
	if !o.trace {
		out.metrics = map[string]float64{
			"setup_s":       setup,
			"ops_per_s":     ratio(good, ls.wall.Seconds()),
			"op_ms_p50":     median(ls.latMS()),
			"cpu_ms_per_op": ratio(float64(ls.serverCPU)/float64(time.Millisecond), good),
		}
		return out, nil
	}

	m := map[string]float64{
		"go.build_s":          buildS,
		"appfitd.peak_rss_mb": rss,
		"appfitd.cpu_util":    ratio(ls.serverCPU.Seconds(), ls.wall.Seconds()*float64(o.procs)),
		"serve.rejected":      rejected,
	}
	out.metrics = m
	clientTimes(m, ls.latMS())
	wireMetrics(m, ls)
	rec := newRecorder()
	if err := replay(ctx, o, m, rec, in, miss); err != nil {
		return outcome{}, err
	}
	builderUnits(m)
	if miss {
		simUnits(m)
	}
	return out, finishTrace(o, name, rec)
}

// wireMetrics reports what the daemon pass read from the service's own
// public outputs: the stage timings every response carries and /stats.
func wireMetrics(m map[string]float64, ls *loadStats) {
	us := func(pick func(serve.Metrics) time.Duration) []float64 {
		var out []float64
		for _, lg := range ls.logs {
			for _, w := range lg.wire {
				out = append(out, float64(pick(w))/float64(time.Microsecond))
			}
		}
		return out
	}
	var overhead []float64
	for _, lg := range ls.logs {
		overhead = append(overhead, lg.overheadUS...)
	}
	m["httpapi.overhead_us_p50"] = median(overhead)
	m["serve.admission_wait_us_p50"] = median(us(func(w serve.Metrics) time.Duration { return w.AdmissionWait }))
	queue := us(func(w serve.Metrics) time.Duration { return w.QueueWait })
	m["serve.queue_wait_us_p50"] = median(queue)
	m["serve.queue_wait_us_p99"] = tail(queue, 99)
	m["serve.total_us_p50"] = median(us(func(w serve.Metrics) time.Duration { return w.Total }))
	m["sweep.cache_lookup_us_p50"] = median(us(func(w serve.Metrics) time.Duration { return w.CacheLookup }))
	// A hit's Sim stage is zero, so this reads 0 on serve-hit.
	m["sweep.sim_us_p50"] = median(us(func(w serve.Metrics) time.Duration { return w.Sim }))

	var heavy, all float64
	for i, ten := range ls.after.Tenants {
		done := float64(ten.Completed - ls.before.Tenants[i].Completed)
		all += done
		if ten.Tenant == "heavy" {
			heavy = done
		}
	}
	m["serve.heavy_completed_share"] = ratio(heavy, all)
	a, b := ls.after.Engine, ls.before.Engine
	m["sweep.hit_share"] = ratio(float64(a.Hits-b.Hits), float64(a.Hits-b.Hits+a.Misses-b.Misses))
	m["sweep.coalesced_share"] = ratio(float64(a.Coalesced-b.Coalesced), float64(a.Requests-b.Requests))
	m["sweep.evictions"] = float64(a.Evictions - b.Evictions)
	m["sweep.entries"] = float64(a.Entries)
}

// replay is the traced pass of the service workloads: boundary replay. One
// client issues each generated submission once at every public boundary on
// the way down — Client.Submit over HTTP; the handler's decode, spec
// resolution, Server.Submit and encode; Engine.RunRequest; RunKey and
// cluster.Run — each boundary against its own identically configured and
// identically warmed stack, so a hit stays a hit and a miss a miss at every
// level. A child's span is linked to its parent by index, not by time: it
// was measured after the parent returned. Every stack has one worker, so a
// submission's children run one after another and their times add.
func replay(ctx context.Context, o options, m map[string]float64, rec *recorder, in *serveInputs, miss bool) error {
	wire, err := startInProcess(ctx, 1)
	if err != nil {
		return err
	}
	defer wire.kill()
	cl := wire.client()
	srv, err := newServer(1)
	if err != nil {
		return err
	}
	eng := sweep.New(sweep.Options{Workers: 1})
	var pool []sweep.Request
	for _, spec := range in.pool {
		req, err := spec.Request()
		if err != nil {
			return err
		}
		pool = append(pool, req)
		eng.RunRequest(ctx, req)
	}
	if _, err := cl.Submit(ctx, replayTenant, in.pool); err != nil {
		return err
	}
	if _, err := srv.Submit(ctx, replayTenant, pool); err != nil {
		return err
	}

	fixedOps := 32
	if o.quick {
		fixedOps = 2
	}
	var sw stopwatch
	var runUS []float64
	var fixed []cluster.Result
	var tasks int
	subs := in.subs[0]
	deadline := time.Now().Add(time.Duration(o.seconds * replayShare * float64(time.Second)))
	ops := 0
	for ; ops < len(subs) && (ops < fixedOps || time.Now().Before(deadline)); ops++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		specs := subs[ops]
		sw.start()
		root := rec.begin("httpapi.client_submit", -1, ops)
		resp, err := cl.Submit(ctx, replayTenant, specs)
		rec.end(root)
		sw.stop()
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}

		body, err := json.Marshal(httpapi.SubmitRequest{Tenant: replayTenant, Requests: specs})
		if err != nil {
			return err
		}
		var decoded httpapi.SubmitRequest
		s := rec.begin("httpapi.decode", root, ops)
		err = json.Unmarshal(body, &decoded)
		rec.end(s)
		if err != nil {
			return err
		}
		reqs := make([]sweep.Request, len(decoded.Requests))
		s = rec.begin("httpapi.spec_request", root, ops)
		for k, spec := range decoded.Requests {
			if reqs[k], err = spec.Request(); err != nil {
				return err
			}
		}
		rec.end(s)
		submit := rec.begin("serve.submit", root, ops)
		resps, err := srv.Submit(ctx, replayTenant, reqs)
		rec.end(submit)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		s = rec.begin("httpapi.encode", root, ops)
		wireResp := httpapi.SubmitResponse{Results: make([]httpapi.Result, len(resps))}
		for k, rp := range resps {
			wireResp.Results[k] = httpapi.Result{Name: rp.Metrics.Name, MakespanNS: int64(rp.Result.Makespan), Metrics: rp.Metrics}
		}
		sink, err = json.Marshal(wireResp)
		rec.end(s)
		if err != nil {
			return err
		}

		for k, req := range reqs {
			rr := rec.begin("sweep.run_request", submit, ops)
			got := eng.RunRequest(ctx, req)
			rec.end(rr)
			s = rec.begin("sweep.run_key", rr, ops)
			sink, _ = sweep.RunKey(req.Job, req.Config)
			rec.end(s)
			if got.Err != nil || got.Metrics.CacheHit == miss ||
				int64(got.Result.Makespan) != resp.Results[k].MakespanNS ||
				got.Result.Makespan != resps[k].Result.Makespan {
				return fmt.Errorf("replay: op %d request %d: the stacks disagree (err %v, hit %v)",
					ops, k, got.Err, got.Metrics.CacheHit)
			}
			if !miss {
				continue
			}
			t0 := time.Now()
			s = rec.begin("cluster.run", rr, ops)
			res, err := cluster.Run(req.Job, req.Config)
			rec.end(s)
			runUS = append(runUS, float64(time.Since(t0))/float64(time.Microsecond))
			tasks += len(req.Job.Tasks)
			if err != nil || res.Makespan != got.Result.Makespan {
				return fmt.Errorf("replay: op %d request %d: cluster.Run disagrees with the engine: %v", ops, k, err)
			}
			if ops < fixedOps {
				fixed = append(fixed, res)
			}
		}
	}

	p50 := func(name string) float64 { return median(rec.durations(name, time.Microsecond)) }
	layerSelf := func(prefix string) float64 {
		return median(rec.selfPerOp(time.Microsecond, func(n string) bool { return strings.HasPrefix(n, prefix) }))
	}
	m["httpapi.client_submit_us_p50"] = p50("httpapi.client_submit")
	m["httpapi.decode_us_p50"] = p50("httpapi.decode")
	m["httpapi.spec_request_us_p50"] = p50("httpapi.spec_request")
	m["httpapi.encode_us_p50"] = p50("httpapi.encode")
	m["httpapi.self_us_p50"] = layerSelf("httpapi.")
	m["serve.submit_us_p50"] = p50("serve.submit")
	m["serve.self_us_p50"] = layerSelf("serve.")
	m["sweep.run_request_us_p50"] = p50("sweep.run_request")
	m["sweep.run_key_us_p50"] = p50("sweep.run_key")
	m["sweep.self_us_p50"] = layerSelf("sweep.")
	if miss {
		clusterMetrics(m, runUS, tasks, fixed)
	}
	sw.heapMetrics(m, ops)
	m["bench.trace_overhead_pct"] = rec.overheadPct()
	_, err = wire.stop()
	return errors.Join(err, srv.Drain(ctx))
}
