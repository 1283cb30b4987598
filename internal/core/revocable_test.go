package core

import (
	"testing"
	"testing/quick"

	"appfit/internal/fit"
	"appfit/internal/xrand"
)

func TestRevocableStillMeetsFinalThreshold(t *testing.T) {
	// Revocation only spends headroom; the final unprotected FIT must
	// still respect the threshold.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 100 + r.Intn(200)
		tasks := make([]fit.Task, n)
		total := 0.0
		for i := range tasks {
			tasks[i] = fit.Task{ID: uint64(i + 1), DUE: expFloat64(r)}
			total += tasks[i].Total()
		}
		thr := total / 5
		a := NewAppFITRevocable(thr, n)
		for _, tk := range tasks {
			a.Observe(tk, a.Decide(tk))
		}
		return a.current <= thr+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRevocableGivesUpProtection(t *testing.T) {
	// With headroom available early, the revocable variant must revoke
	// some decisions the add-only heuristic keeps — the measurable
	// drawback of §IV-B's rejected design.
	const n = 1000
	tasks := uniformTasks(n, 1.0)
	thr := float64(n) / 5 // 5× scenario
	addOnly := fractionReplicated(runSequential(NewAppFIT(thr, n), tasks))
	revocable := NewAppFITRevocable(thr, n)
	revFrac := fractionReplicated(runSequential(revocable, tasks))
	if revocable.revoked == 0 || revocable.revokedF <= 0 {
		t.Fatal("revocable variant never revoked — ablation is vacuous")
	}
	if revFrac > addOnly {
		t.Fatalf("revocable replicated more (%g) than add-only (%g)", revFrac, addOnly)
	}
	// The measurable loss: revocation front-loads unprotected FIT, so the
	// per-prefix (prorated) budget of Equation 1 — which the add-only
	// design honours at every step — is violated mid-run.
	step := thr / float64(n)
	excess := 0.0
	check := NewAppFITRevocable(thr, n)
	cur := 0.0
	for i, tk := range tasks {
		if !check.Decide(tk) {
			cur += tk.Total()
		}
		if e := cur - step*float64(i+1); e > excess {
			excess = e
		}
	}
	if excess <= step/2 {
		t.Fatalf("expected a prorated-budget violation from revocation, max excess %g", excess)
	}
}

func TestRevocableAccessors(t *testing.T) {
	a := NewAppFITRevocable(10, 0)
	if a.Name() != "app_fit_revocable" {
		t.Fatal("name")
	}
	if a.threshold != 10 {
		t.Fatal("threshold")
	}
	if a.n != 1 {
		t.Fatal("totalTasks clamp")
	}
}

func TestRevocableZeroSlackBehavesLikeStrict(t *testing.T) {
	// With Slack larger than any headroom, no revocations happen and the
	// decisions match AppFIT's exactly: both charge an admitted task at
	// decision time (AppFIT's reservation stands until Observe, which this
	// loop never calls).
	const n = 500
	tasks := uniformTasks(n, 1.0)
	thr := float64(n) / 10
	rev := NewAppFITRevocable(thr, n)
	rev.Slack = 1e18
	strict := NewAppFIT(thr, n)
	for _, tk := range tasks {
		dr := rev.Decide(tk)
		ds := strict.Decide(tk)
		if dr != ds {
			t.Fatalf("task %d: revocable(no-slack) %v != app_fit %v", tk.ID, dr, ds)
		}
	}
	if rev.revoked != 0 {
		t.Fatalf("unexpected revocations: %d", rev.revoked)
	}
}
