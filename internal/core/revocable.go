package core

import (
	"sync"

	"appfit/internal/fit"
)

// AppFITRevocable implements the design alternative the paper explicitly
// rejects (§IV-B): "App FIT, in its current design, only adds tasks to
// replicate. It could have been designed such that some replica tasks are
// removed dynamically however this has the drawback of losing the
// reliability obtained from ... the removed tasks."
//
// This variant exists so the drawback is measurable (DESIGN.md §4
// ablations): when the accumulated unprotected FIT falls far enough below
// the prorated budget (by Slack × the budget step), a pending replication
// decision is revoked — the task runs unreplicated even though Equation 1
// asked for protection. RevokedFIT tallies the reliability given up, which
// is exactly the loss the paper's add-only design avoids.
type AppFITRevocable struct {
	mu        sync.Mutex
	threshold float64
	n         int
	// Slack is how many budget steps of headroom trigger a revocation
	// (default 2).
	Slack float64

	current  float64
	decided  int
	revoked  int     // Equation-1 replications revoked
	revokedF float64 // their FIT: the protection given up, the paper's "loss"
}

// NewAppFITRevocable returns the removal-capable variant.
func NewAppFITRevocable(threshold float64, totalTasks int) *AppFITRevocable {
	if totalTasks < 1 {
		totalTasks = 1
	}
	return &AppFITRevocable{threshold: threshold, n: totalTasks, Slack: 2}
}

// Name implements Selector.
func (a *AppFITRevocable) Name() string { return "app_fit_revocable" }

// Decide implements Selector: Equation 1, then the revocation rule.
func (a *AppFITRevocable) Decide(t fit.Task) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := a.decided
	a.decided++
	step := a.threshold / float64(a.n)
	budget := step * float64(i+1)
	if a.current+t.Total() > budget {
		// Equation 1 says replicate — but revoke if there is ample
		// headroom against the *final* threshold (the dynamic removal
		// the paper rejected).
		if a.threshold-a.current-t.Total() > a.Slack*step {
			a.revoked++
			a.revokedF += t.Total()
			a.current += t.Total()
			return false
		}
		return true
	}
	a.current += t.Total()
	return false
}

// Observe implements Selector (accounting done at decision time so
// revocations are visible immediately).
func (a *AppFITRevocable) Observe(t fit.Task, replicated bool) {}
