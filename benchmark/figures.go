package main

import (
	"context"
	"fmt"
	"time"

	"appfit/internal/bench/workload"
	"appfit/internal/experiments"
	"appfit/internal/sweep"
	"appfit/internal/xrand"
)

// figure is one of the five evaluation outputs a round regenerates; run
// returns the rendered table, which must equal the reference byte for byte.
type figure struct {
	name string
	run  func(eng *sweep.Engine) (string, error)
}

var figures = []figure{
	{"fig1", func(eng *sweep.Engine) (string, error) { return experiments.Fig1(eng), nil }},
	{"fig4", func(eng *sweep.Engine) (string, error) {
		_, s, err := experiments.Fig4(eng, workload.Small)
		return s, err
	}},
	{"fig5", func(eng *sweep.Engine) (string, error) {
		_, s, err := experiments.Fig5(eng, workload.Small)
		return s, err
	}},
	{"fig6", func(eng *sweep.Engine) (string, error) {
		_, s, err := experiments.Fig6(eng, workload.Small)
		return s, err
	}},
	{"sparecores", func(eng *sweep.Engine) (string, error) {
		return experiments.SpareCoreSweep(eng, "cholesky", workload.Small)
	}},
}

// runFigures is the reproduction user's path: each round regenerates the
// paper's evaluation through a fresh sweep engine, so nothing is cached
// between rounds and RunBatch's key memo, worker pool and within-round
// sharing all run. The seed orders the figures within each round, which
// moves the shared simulations between them.
func runFigures(ctx context.Context, o options) (outcome, error) {
	var ref []string
	var order [][]int
	setup, err := timeSetup(o, nil, func() error {
		// The reference comes from a serial engine: one goroutine, the
		// same tables.
		eng := sweep.New(sweep.Options{Workers: -1})
		ref = make([]string, len(figures))
		for i, f := range figures {
			s, err := f.run(eng)
			if err != nil {
				return fmt.Errorf("reference %s: %w", f.name, err)
			}
			ref[i] = s
		}
		rng := xrand.New(xrand.Combine(o.seed, 0x66696773))
		order = make([][]int, 1024)
		for i := range order {
			order[i] = rng.Perm(len(figures))
		}
		return nil
	})
	if err != nil {
		return outcome{}, err
	}

	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	var fixed sweep.Stats // the engine's counters over the first round
	ls, err := runRounds(ctx, o, 1, rec, func(i, root int, sw *stopwatch) roundTally {
		var t roundTally
		got := make([]string, len(figures))
		errs := make([]error, len(figures))
		sw.start()
		eng := sweep.New(sweep.Options{Workers: o.procs})
		for _, f := range order[i%len(order)] {
			s := rec.begin("experiments."+figures[f].name, root, i)
			got[f], errs[f] = figures[f].run(eng)
			rec.end(s)
		}
		sw.stop()
		st := eng.Stats()
		t.ops = int(st.Requests)
		if i == 0 {
			fixed = st
		}
		for f := range figures {
			t.attempted++
			if errs[f] != nil || got[f] != ref[f] {
				fmt.Fprintf(o.log, "figures: round %d %s: err %v, differs from reference %v\n",
					i, figures[f].name, errs[f], got[f] != ref[f])
				t.failed++
			}
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
	for _, f := range figures {
		m["experiments."+f.name+"_ms_p50"] = median(rec.durations("experiments."+f.name, time.Millisecond))
	}
	m["sweep.hit_share"] = ratio(float64(fixed.Hits), float64(fixed.Hits+fixed.Misses))
	m["sweep.coalesced_share"] = ratio(float64(fixed.Coalesced), float64(fixed.Requests))
	m["sweep.evictions"] = float64(fixed.Evictions)
	m["sweep.entries"] = float64(fixed.Entries)
	builderUnits(m)
	simUnits(m)
	if err := batchUnits(m); err != nil {
		return outcome{}, err
	}
	return out, finishTrace(o, "figures", rec)
}
