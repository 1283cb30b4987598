package bench

import (
	"sync"

	"appfit/internal/bench/workload"
	"appfit/internal/sweep"
)

// jobs is the process's prepared-job memo: the figures, cmd/replicate and
// appfitd all build their simulator jobs through it, so a long-lived
// process builds, hashes and lays out each job once.
var jobs = JobMemo{Build: func(w workload.Workload, scale workload.Scale, nodes int) *sweep.Prepared {
	return sweep.Prepare(w.BuildJob(scale, nodes, workload.DefaultCostModel()))
}}

// Prepared returns the benchmark's simulator job at the scale over the
// given node count, prepared for the sweep engine under the default cost
// model, from the process-wide memo.
func Prepared(w workload.Workload, scale workload.Scale, nodes int) *sweep.Prepared {
	return jobs.Get(w, scale, nodes)
}

// memoTasks bounds the summed task count of the jobs a memo holds: every
// figure's jobs at Medium (~1.9 M tasks) fit, while a client sweeping nodes
// over medium linpacks (~300 000 tasks each) cannot pin gigabytes.
const memoTasks = 1 << 22

// JobMemo memoizes prepared jobs by (benchmark, scale, nodes): a job is a
// pure function of those three (seed, rate and cores shape only the
// cluster.Config), so rebuilding and re-hashing a several-thousand-task
// DAG per figure or per request would only burn CPU — at stream/small a
// build costs more than the simulation it feeds. A sweep.Prepared is
// immutable and shared: every request for the job derives its cache key
// from the one stored digest and simulates on the one layout.
//
// A job builds outside the mutex, so a cold build holds up only its own
// caller, never another caller's lookup; two callers of one cold job may
// both build it, and the first build stored is the one both get.
type JobMemo struct {
	// Build prepares a job the memo does not hold.
	Build func(w workload.Workload, scale workload.Scale, nodes int) *sweep.Prepared

	mu sync.Mutex
	// m holds jobs of tasks tasks in all; a job that would take the sum
	// past limit (memoTasks when 0) resets it. // guarded by mu
	m     map[jobKey]*sweep.Prepared
	tasks int // guarded by mu
	limit int
}

type jobKey struct {
	bench string
	scale workload.Scale
	nodes int
}

// Get returns w's prepared job at scale over nodes, building it on a miss.
func (c *JobMemo) Get(w workload.Workload, scale workload.Scale, nodes int) *sweep.Prepared {
	key := jobKey{bench: w.Name(), scale: scale, nodes: nodes}
	c.mu.Lock()
	p, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return p
	}
	p = c.Build(w, scale, nodes)
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.m[key]; ok {
		return first
	}
	n, limit := len(p.Job().Tasks), c.limit
	if limit == 0 {
		limit = memoTasks
	}
	if c.m == nil || c.tasks+n > limit {
		c.m, c.tasks = make(map[jobKey]*sweep.Prepared), 0
	}
	c.m[key] = p
	c.tasks += n
	return p
}
