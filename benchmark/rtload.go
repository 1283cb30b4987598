package main

import (
	"context"
	"fmt"
	"time"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/xrand"
)

// rtBenches are the Table-I benchmarks the runtime workloads run: a few
// thousand mostly 4-40 us tasks a round, so rt, deps and sched dominate.
// The other six are kernel-bound and would dilute every runtime-layer
// change below the noise floor.
var rtBenches = []string{"stream", "pingpong", "cholesky"}

func runRTPlain(ctx context.Context, o options) (outcome, error) {
	return runRT(ctx, o, "rt-plain", false)
}

func runRTReplicate(ctx context.Context, o options) (outcome, error) {
	return runRT(ctx, o, "rt-replicate", true)
}

// runRT is both runtime workloads: a round builds each of rtBenches on a
// fresh runtime, drains it and verifies the result. Replicated rounds run
// under ReplicateAll with a fault injector seeded from (seed, round, bench).
func runRT(ctx context.Context, o options, name string, replicate bool) (outcome, error) {
	var ws []workload.Workload
	// ref holds the fault-free task counts every round must match.
	var ref []rt.Stats
	// seeds[round%len][bench] are the injector seeds, generated up front.
	var seeds [][]uint64
	setup, err := timeSetup(o, nil, func() error {
		ws, ref, seeds = nil, nil, nil
		for _, n := range rtBenches {
			w, err := bench.ByName(n)
			if err != nil {
				return err
			}
			ws = append(ws, w)
			st, verify, err := rtRun(w, rt.Config{Workers: o.procs}, nil, -1, 0)
			if err == nil {
				err = verify()
			}
			if err != nil {
				return fmt.Errorf("reference %s: %w", n, err)
			}
			ref = append(ref, st)
		}
		rng := xrand.New(xrand.Combine(o.seed, 0x7274))
		seeds = make([][]uint64, 4096)
		for i := range seeds {
			for range ws {
				seeds[i] = append(seeds[i], rng.Uint64()|1)
			}
		}
		return nil
	})
	if err != nil {
		return outcome{}, err
	}

	minRounds := 4
	if o.quick {
		minRounds = 1
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	var fixed, all rt.Stats // counters over the first minRounds rounds, and over all
	benchTasks := make([]uint64, len(ws))
	ls, err := runRounds(ctx, o, minRounds, rec, func(i, root int, sw *stopwatch) roundTally {
		var t roundTally
		for b, w := range ws {
			cfg := rt.Config{Workers: o.procs}
			if replicate {
				cfg.Selector = core.ReplicateAll{}
				cfg.Injector = fault.NewFixedRate(seeds[i%len(seeds)][b], 0.005, 0.005)
			}
			sw.start()
			st, verify, err := rtRun(w, cfg, rec, root, i)
			sw.stop()
			if err == nil {
				err = verify()
			}
			t.attempted++
			t.ops += int(st.Completed)
			if err != nil || st.Completed != ref[b].Completed {
				fmt.Fprintf(o.log, "%s: round %d %s: %v (completed %d, want %d)\n",
					name, i, w.Name(), err, st.Completed, ref[b].Completed)
				t.failed++
			}
			all.Add(st)
			if i < minRounds {
				fixed.Add(st)
			}
			benchTasks[b] = st.Completed
		}
		return t
	})
	if err != nil {
		return outcome{}, err
	}

	out := outcome{attempted: ls.attempted, failed: ls.failed}
	if !o.trace {
		out.metrics = ls.endToEnd(setup)
		return out, nil
	}

	m := make(map[string]float64)
	out.metrics = m
	ls.processMetrics(m, rec)
	m["rt.new_us_p50"] = median(rec.durations("rt.new", time.Microsecond))
	m["rt.build_ms_p50"] = median(rec.perOp("rt.build", time.Millisecond))
	m["rt.shutdown_ms_p50"] = median(rec.perOp("rt.shutdown", time.Millisecond))
	wallNS := float64(ls.sw.wall)
	m["rt.us_per_task"] = ratio(wallNS/1e3, float64(all.Completed))
	for b, w := range ws {
		m["rt."+w.Name()+"_us_per_task"] = ratio(median(rec.durations("bench."+w.Name(), time.Microsecond)), float64(benchTasks[b]))
	}
	m["rt.tasks"] = float64(fixed.Completed)
	m["rt.replicated"] = float64(fixed.Replicated)
	m["rt.sdc_detected"] = float64(fixed.SDCDetected)
	m["rt.due_recovered"] = float64(fixed.DUERecovered)
	m["rt.reexecutions"] = float64(fixed.Reexecutions)
	m["rt.vote_failures"] = float64(fixed.VoteFailures)
	m["rt.dep_edges"] = float64(fixed.DepEdges)
	m["ckpt.saves"] = float64(fixed.Checkpoint.Saves)
	m["ckpt.restores"] = float64(fixed.Checkpoint.Restores)
	m["ckpt.bytes_saved"] = float64(fixed.Checkpoint.BytesSaved)
	m["ckpt.peak_live_bytes"] = float64(all.Checkpoint.PeakLive)

	// Where the workers' time went: in task bodies, in redundant task
	// bodies, and the rest — runtime overhead plus idling.
	capacity := wallNS * float64(o.procs)
	m["rt.task_time_share"] = ratio(float64(all.TaskTimeNs), capacity)
	m["rt.redundant_time_share"] = ratio(float64(all.RedundantTimeNs), capacity)
	m["rt.overhead_share"] = 1 - m["rt.task_time_share"] - m["rt.redundant_time_share"]

	// Count x unit cost estimates each fine layer's share of the overhead;
	// what they do not explain is rt.unattributed_share. A replicated task
	// saves, clones and compares about the bytes its checkpoint holds, so
	// all three are priced on ckpt's byte count.
	taskUnits(m)
	replicaUnits(m)
	kb := float64(all.Checkpoint.BytesSaved) / 1024
	estimated := float64(all.Completed)*(m["deps.register_ns"]+m["deps.complete_ns"]+m["sched.submit_get_ns"]+m["fit.estimate_ns"]) +
		kb*(m["ckpt.save_ns_per_kb"]+m["buffer.clone_ns_per_kb"]+m["vote.equal_ns_per_kb"]) +
		float64(all.Checkpoint.Restores)*argSetKB*m["ckpt.restore_ns_per_kb"]
	m["rt.unattributed_share"] = m["rt.overhead_share"] - ratio(estimated, capacity)
	return out, finishTrace(o, name, rec)
}

// rtRun is one benchmark on one fresh runtime: New, BuildRT (the submit
// phase), Shutdown (the drain), each under its own span. It returns the
// runtime's counters, the benchmark's verifier for the caller to run outside
// its timed section, and Shutdown's error.
func rtRun(w workload.Workload, cfg rt.Config, rec *recorder, parent, op int) (rt.Stats, workload.Verifier, error) {
	top := rec.begin("bench."+w.Name(), parent, op)
	s := rec.begin("rt.new", top, op)
	r := rt.New(cfg)
	rec.end(s)
	s = rec.begin("rt.build", top, op)
	verify := w.BuildRT(r, workload.Small)
	rec.end(s)
	s = rec.begin("rt.shutdown", top, op)
	err := r.Shutdown()
	rec.end(s)
	rec.end(top)
	return r.Stats(), verify, err
}
