package main

import (
	"math"
	"sort"

	"appfit/internal/stats"
)

// metricDef declares one metric. BENCHMARK.json repeats these tables (the
// smoke test holds the two to each other); README.md is the glossary.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one; an "op" is a request on serve-*, a simulation on
// figures, a task on rt-* and a message on dist-world for ops_per_s, and a
// submission on serve-* and a round elsewhere for op_ms_p50.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
}

// perLayer are the single-layer metrics of the traced run, grouped by the
// module that owns the layer. Times are host time except names containing
// "virtual", which are simulated time and repeat exactly.
var perLayer = []metricDef{
	// httpapi
	{"httpapi.overhead_us_p50", "us", "lower"},
	{"httpapi.client_submit_us_p50", "us", "lower"},
	{"httpapi.decode_us_p50", "us", "lower"},
	{"httpapi.spec_request_us_p50", "us", "lower"},
	{"httpapi.encode_us_p50", "us", "lower"},
	{"httpapi.self_us_p50", "us", "lower"},
	// serve
	{"serve.admission_wait_us_p50", "us", "lower"},
	{"serve.queue_wait_us_p50", "us", "lower"},
	{"serve.queue_wait_us_p99", "us", "lower"},
	{"serve.total_us_p50", "us", "lower"},
	{"serve.heavy_completed_share", "ratio", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.submit_us_p50", "us", "lower"},
	{"serve.self_us_p50", "us", "lower"},
	// sweep
	{"sweep.cache_lookup_us_p50", "us", "lower"},
	{"sweep.sim_us_p50", "us", "lower"},
	{"sweep.hit_share", "ratio", "higher"},
	{"sweep.coalesced_share", "ratio", "higher"},
	{"sweep.evictions", "count", "lower"},
	{"sweep.entries", "count", "lower"},
	{"sweep.run_key_us_p50", "us", "lower"},
	{"sweep.run_request_us_p50", "us", "lower"},
	{"sweep.self_us_p50", "us", "lower"},
	{"sweep.run_batch_ms_p50", "ms", "lower"},
	{"sweep.batch_overhead_pct", "%", "lower"},
	// cluster
	{"cluster.run_us_p50", "us", "lower"},
	{"cluster.run_us_per_task", "us", "lower"},
	{"cluster.runs", "count", "lower"},
	{"cluster.tasks_per_run", "count", "lower"},
	{"cluster.reexecutions", "count", "lower"},
	{"cluster.sdc_detected", "count", "lower"},
	{"cluster.due_recovered", "count", "lower"},
	{"cluster.messages", "count", "lower"},
	{"cluster.virtual_ms_sum", "ms", "lower"},
	// simtime, simnet, fault
	{"simtime.event_ns", "ns", "lower"},
	{"simnet.send_ns", "ns", "lower"},
	{"simnet.charge_ns", "ns", "lower"},
	{"simnet.bytes_sent", "bytes", "lower"},
	{"simnet.wire_bytes", "bytes", "lower"},
	{"fault.draw_ns", "ns", "lower"},
	// bench (job and runtime builders), experiments
	{"bench.build_job_ms", "ms", "lower"},
	{"experiments.fig1_ms_p50", "ms", "lower"},
	{"experiments.fig4_ms_p50", "ms", "lower"},
	{"experiments.fig5_ms_p50", "ms", "lower"},
	{"experiments.fig6_ms_p50", "ms", "lower"},
	{"experiments.sparecores_ms_p50", "ms", "lower"},
	// rt
	{"rt.new_us_p50", "us", "lower"},
	{"rt.build_ms_p50", "ms", "lower"},
	{"rt.shutdown_ms_p50", "ms", "lower"},
	{"rt.us_per_task", "us", "lower"},
	{"rt.stream_us_per_task", "us", "lower"},
	{"rt.pingpong_us_per_task", "us", "lower"},
	{"rt.cholesky_us_per_task", "us", "lower"},
	{"rt.tasks", "count", "lower"},
	{"rt.replicated", "count", "lower"},
	{"rt.sdc_detected", "count", "lower"},
	{"rt.due_recovered", "count", "lower"},
	{"rt.reexecutions", "count", "lower"},
	{"rt.vote_failures", "count", "lower"},
	{"rt.dep_edges", "count", "lower"},
	{"rt.task_time_share", "ratio", "higher"},
	{"rt.redundant_time_share", "ratio", "lower"},
	{"rt.overhead_share", "ratio", "lower"},
	{"rt.unattributed_share", "ratio", "lower"},
	// deps, sched, core, fit
	{"deps.register_ns", "ns", "lower"},
	{"deps.complete_ns", "ns", "lower"},
	{"sched.submit_get_ns", "ns", "lower"},
	{"sched.submit_batch_ns", "ns", "lower"},
	{"core.decide_observe_ns", "ns", "lower"},
	{"fit.estimate_ns", "ns", "lower"},
	// ckpt, vote, buffer
	{"ckpt.saves", "count", "lower"},
	{"ckpt.restores", "count", "lower"},
	{"ckpt.bytes_saved", "bytes", "lower"},
	{"ckpt.peak_live_bytes", "bytes", "lower"},
	{"ckpt.save_ns_per_kb", "ns/KB", "lower"},
	{"ckpt.restore_ns_per_kb", "ns/KB", "lower"},
	{"vote.equal_ns_per_kb", "ns/KB", "lower"},
	{"vote.majority_ns_per_kb", "ns/KB", "lower"},
	{"buffer.clone_ns_per_kb", "ns/KB", "lower"},
	{"buffer.pool_get_put_ns", "ns", "lower"},
	// dist
	{"dist.boot_ms_p50", "ms", "lower"},
	{"dist.halo_ms_p50", "ms", "lower"},
	{"dist.allreduce_small_ms_p50", "ms", "lower"},
	{"dist.allreduce_large_ms_p50", "ms", "lower"},
	{"dist.allgatherv_ms_p50", "ms", "lower"},
	{"dist.cholesky_ms_p50", "ms", "lower"},
	{"dist.virtual_us", "us", "lower"},
	{"dist.halo_virtual_us", "us", "lower"},
	{"dist.allreduce_small_virtual_us", "us", "lower"},
	{"dist.allreduce_large_virtual_us", "us", "lower"},
	{"dist.allgatherv_virtual_us", "us", "lower"},
	{"dist.cholesky_virtual_us", "us", "lower"},
	{"dist.new_world_ms_p50", "ms", "lower"},
	{"dist.build_ms_p50", "ms", "lower"},
	{"dist.shutdown_ms_p50", "ms", "lower"},
	{"dist.messages", "count", "lower"},
	{"dist.tasks", "count", "lower"},
	{"dist.us_per_msg", "us", "lower"},
	{"dist.direct_pingpong_ns", "ns", "lower"},
	// process, Go runtime, load generator
	{"go.allocs_per_op", "count", "lower"},
	{"go.alloc_kb_per_op", "KB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.build_s", "s", "lower"},
	{"appfitd.peak_rss_mb", "MB", "lower"},
	{"appfitd.cpu_util", "ratio", "lower"},
	{"client.op_ms_p50", "ms", "lower"},
	{"client.op_ms_p90", "ms", "lower"},
	{"client.op_ms_p99", "ms", "lower"},
	{"client.op_ms_p999", "ms", "lower"},
	{"client.samples", "count", "higher"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// median returns the middle of xs, 0 for no samples.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// tail returns the p-th percentile of xs. A tail percentile is only
// reported with at least ten samples beyond it; with fewer it reads 0, "not
// measured".
func tail(xs []float64, p float64) float64 {
	if beyond := len(xs) - int(math.Ceil(p/100*float64(len(xs)))); beyond < 10 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// quartiles are the three cut points Python's statistics.quantiles(xs, n=4)
// returns (the "exclusive" method), which is how the driver computes a
// metric's spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
