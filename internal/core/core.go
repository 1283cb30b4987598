// Package core implements the paper's primary contribution: the App_FIT
// runtime heuristic for selective task replication (§IV), together with the
// baseline selection policies it is evaluated against and an offline
// knapsack oracle representing the NP-hard optimum it approximates (§I).
//
// A Selector is consulted by the runtime immediately before a task executes
// and decides whether that task is replicated. App_FIT's contract (§IV-B):
// given a user FIT threshold for the whole application and the total task
// count N, the unprotected (non-replicated) FIT accumulated by the first
// i+1 decided tasks never exceeds (threshold/N)×(i+1) — so the application
// finishes with total unprotected FIT at or below the threshold.
package core

import (
	"sort"
	"sync"

	"appfit/internal/fit"
	"appfit/internal/xrand"
)

// Selector decides, per task, whether to replicate it. Implementations must
// be safe for concurrent use: worker threads call Decide as tasks become
// ready and Observe as they finish.
type Selector interface {
	// Name identifies the policy in traces and experiment tables.
	Name() string
	// Decide is called once per task right before it executes and returns
	// true if the task must be replicated.
	Decide(t fit.Task) bool
	// Observe is called once per task after it (and any replicas) finish,
	// with the decision that was made for it.
	Observe(t fit.Task, replicated bool)
}

// AppFIT is the paper's heuristic. Before task T executes it atomically
// checks Equation 1:
//
//	current_fit + (λF(T)+λSDC(T)) > (threshold/N) × (i+1)
//
// where i is the number of decisions made so far and current_fit is the
// FIT of every task so far admitted to run unreplicated — finished ones and
// those still in flight. If the condition holds the task is replicated (its
// failures are detected and recovered, so it contributes no unprotected
// FIT); otherwise it runs unreplicated and its FIT is reserved against the
// budget at once, then settled into the finished total when Observe reports
// it done. Reserving at decision time is what makes the contract hold with
// any number of workers: charged only at completion, W workers could each
// admit a task against the same budget and overshoot it by up to
// (W−1)·max-task-FIT. Run sequentially — every Decide followed by its
// Observe — the reservation is (0 + t) − t = 0 exactly and the decisions are
// those of the completion-charged rule, bit for bit.
//
// Per §IV-B the heuristic only ever adds tasks to the replicated set — a
// decision is never revoked, so protection already paid for is never lost.
type AppFIT struct {
	mu        sync.Mutex
	threshold float64
	n         int
	current   float64 // FIT of finished unreplicated tasks
	inflight  float64 // FIT reserved by admitted unreplicated tasks not yet observed
	decided   int     // i: decisions made so far
	maxExcess float64 // worst observed current_fit − prorated budget (≤0 if never exceeded)
}

// NewAppFIT returns an App_FIT selector for an application with totalTasks
// tasks and the given FIT threshold. The paper assumes the user knows both
// ("given that the user knows the FIT threshold, we assume it also knows the
// total number of tasks which the runtime takes as an input", §IV-B).
func NewAppFIT(threshold float64, totalTasks int) *AppFIT {
	if totalTasks < 1 {
		totalTasks = 1
	}
	return &AppFIT{threshold: threshold, n: totalTasks}
}

// Name implements Selector.
func (a *AppFIT) Name() string { return "app_fit" }

// Decide implements Selector (Equation 1, checked atomically; an admitted
// task's FIT is reserved until Observe).
func (a *AppFIT) Decide(t fit.Task) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := a.decided
	a.decided++
	budget := a.threshold / float64(a.n) * float64(i+1)
	if a.current+a.inflight+t.Total() > budget {
		return true
	}
	a.inflight += t.Total()
	return false
}

// Observe implements Selector: the reserved FIT of an unreplicated task
// moves to current_fit when the task finishes.
func (a *AppFIT) Observe(t fit.Task, replicated bool) {
	if replicated {
		return
	}
	a.mu.Lock()
	a.inflight -= t.Total()
	a.current += t.Total()
	// Track the worst excess over the prorated budget at this point; the
	// runtime uses it to verify the threshold contract.
	budget := a.threshold / float64(a.n) * float64(a.decided)
	if ex := a.current - budget; ex > a.maxExcess {
		a.maxExcess = ex
	}
	a.mu.Unlock()
}

// CurrentFIT returns the unprotected FIT accumulated by finished tasks.
func (a *AppFIT) CurrentFIT() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.current
}

// MaxExcess returns the worst overshoot of current_fit above the prorated
// budget observed at any completion; ≤ 0 means the contract held, which the
// reservation in Decide guarantees at any worker count.
func (a *AppFIT) MaxExcess() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxExcess
}

// ReplicateAll replicates every task: the paper's "complete task
// replication" baseline (§V-A2 and the motivation in §I).
type ReplicateAll struct{}

// Name implements Selector.
func (ReplicateAll) Name() string { return "replicate_all" }

// Decide implements Selector.
func (ReplicateAll) Decide(fit.Task) bool { return true }

// Observe implements Selector.
func (ReplicateAll) Observe(fit.Task, bool) {}

// ReplicateNone never replicates: the fault-free / unprotected baseline.
type ReplicateNone struct{}

// Name implements Selector.
func (ReplicateNone) Name() string { return "replicate_none" }

// Decide implements Selector.
func (ReplicateNone) Decide(fit.Task) bool { return false }

// Observe implements Selector.
func (ReplicateNone) Observe(fit.Task, bool) {}

// RandomPct replicates each task independently with probability P,
// deterministically from the task id. It is the naive baseline a
// FIT-agnostic policy would give.
type RandomPct struct {
	P    float64
	Seed uint64
}

// Name implements Selector.
func (RandomPct) Name() string { return "random_pct" }

// Decide implements Selector.
func (r RandomPct) Decide(t fit.Task) bool {
	return xrand.Unit(xrand.First(xrand.Combine(r.Seed, t.ID, 0xAE5))) < r.P
}

// Observe implements Selector.
func (RandomPct) Observe(fit.Task, bool) {}

// OracleResult is the outcome of the offline knapsack optimum.
type OracleResult struct {
	// Replicate[i] is true if task i (by input order) must be replicated.
	Replicate []bool
	// NumReplicated is the minimal number of replicated tasks.
	NumReplicated int
	// UnprotectedFIT is the resulting unprotected FIT (≤ threshold).
	UnprotectedFIT float64
}

// KnapsackOracle computes the offline optimum the paper frames selective
// replication against (§I: "the optimal selective replication is NP-hard
// which can be formalized as a bounded knapsack problem"). Given every
// task's FIT up front, it selects the minimum number of tasks to replicate
// so that the total unprotected FIT stays at or below threshold.
//
// Minimizing the *count* of replicated tasks is the continuous analogue with
// unit costs, for which the greedy solution — leave unreplicated the tasks
// with the smallest FIT until the budget is exhausted — is exactly optimal:
// exchanging any kept task for a smaller-FIT excluded one only frees budget.
// (Minimizing replicated *time* with heterogeneous durations is the NP-hard
// variant; MinimizeTime applies the same greedy by FIT-per-second as a lower
// bound.)
func KnapsackOracle(tasks []fit.Task, threshold float64) OracleResult {
	idx := make([]int, len(tasks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return tasks[idx[a]].Total() < tasks[idx[b]].Total() })
	res := OracleResult{Replicate: make([]bool, len(tasks))}
	for i := range res.Replicate {
		res.Replicate[i] = true
	}
	budget := threshold
	for _, i := range idx {
		f := tasks[i].Total()
		if f <= budget {
			budget -= f
			res.Replicate[i] = false
			res.UnprotectedFIT += f
		}
	}
	for _, r := range res.Replicate {
		if r {
			res.NumReplicated++
		}
	}
	return res
}
