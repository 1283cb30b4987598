package main

import (
	"context"
	"time"
)

// roundTally is what one round of an in-process workload reports: how many
// throughput ops it completed (tasks, messages, simulations) and how many
// verifiable units it attempted and failed.
type roundTally struct{ ops, attempted, failed int }

// loopStats is the outcome of a timed loop of rounds.
type loopStats struct {
	sw      stopwatch
	roundMS []float64 // timed time of each round
	roundTally
}

// runRounds calls round until o.seconds of wall time have passed, and at
// least minRounds times: the first minRounds rounds are the fixed work the
// exact counters are taken over. round opens and closes sw around the
// sections it wants timed, so verification between them is not, and hangs
// its spans under root, the round's own span, whose length is that timed
// time. rec is nil on an untraced run.
func runRounds(ctx context.Context, o options, minRounds int, rec *recorder,
	round func(i, root int, sw *stopwatch) roundTally) (loopStats, error) {
	var ls loopStats
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return ls, err
		}
		before := ls.sw.wall
		root := rec.begin("round", -1, i)
		t := round(i, root, &ls.sw)
		rec.endAfter(root, ls.sw.wall-before)
		ls.roundMS = append(ls.roundMS, float64(ls.sw.wall-before)/float64(time.Millisecond))
		ls.ops += t.ops
		ls.attempted += t.attempted
		ls.failed += t.failed
	}
	return ls, nil
}

// endToEnd are the four metrics every untraced run reports, for a workload
// whose op_ms_p50 and cpu_ms_per_op count rounds.
func (ls *loopStats) endToEnd(setupSeconds float64) map[string]float64 {
	return map[string]float64{
		"setup_s":       setupSeconds,
		"ops_per_s":     ratio(float64(ls.ops), ls.sw.wall.Seconds()),
		"op_ms_p50":     median(ls.roundMS),
		"cpu_ms_per_op": ratio(float64(ls.sw.cpu)/float64(time.Millisecond), float64(len(ls.roundMS))),
	}
}

// processMetrics are the traced run's numbers about the benchmark process
// itself and its load loop.
func (ls *loopStats) processMetrics(m map[string]float64, rec *recorder) {
	ls.sw.heapMetrics(m, len(ls.roundMS))
	clientTimes(m, ls.roundMS)
	m["bench.trace_overhead_pct"] = rec.overheadPct()
}

// clientTimes reports the op times the load loop saw on a traced run: the
// median, to hold against the untraced run's op_ms_p50, and the tails,
// each of which reads 0 until ten samples lie beyond it.
func clientTimes(m map[string]float64, opMS []float64) {
	m["client.op_ms_p50"] = median(opMS)
	m["client.op_ms_p90"] = tail(opMS, 90)
	m["client.op_ms_p99"] = tail(opMS, 99)
	m["client.op_ms_p999"] = tail(opMS, 99.9)
	m["client.samples"] = float64(len(opMS))
}

// timeSetup runs a workload's set-up several times and returns the median
// duration in seconds; what the last run built is what the workload uses.
// discard (optional) releases what the previous run built, untimed.
func timeSetup(o options, discard func(), setup func() error) (float64, error) {
	reps := 5
	if o.trace || o.quick {
		reps = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}
