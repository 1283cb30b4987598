package vote

// Verdict is what the recovery rule decides at the end of a round of
// attempts.
type Verdict uint8

const (
	// Reexecute: no two survivors agree yet, so the task restores its
	// checkpoint and runs once more.
	Reexecute Verdict = iota
	// Adopt: the latest survivor agrees with an earlier one, and its result
	// becomes the task's.
	Adopt
	// GiveUp: the attempt budget is spent without two survivors agreeing.
	GiveUp
)

// MaxAttempts caps the executions of one replicated task, its primary and
// replica included: both engines give up after this many without two
// survivors agreeing.
const MaxAttempts = 8

// Recovery is Figure 2's recovery rule for one replicated task, the one
// place adopt, re-execute and give up are decided: rt feeds it real buffer
// comparisons, cluster its simulated fault outcomes. It sees only what
// each finished attempt amounts to — crashed, or survived and agreeing (or
// not) with an earlier survivor — and states:
//
//   - a result is adopted once two survivors agree, so a lone survivor
//     never is: a corrupted one would otherwise go unchecked;
//   - no more than maxAttempts attempts run;
//   - a detection is a comparison that disagreed, once per task.
//
// The zero value is a task before its primary and replica finish.
type Recovery struct {
	attempts int32
	// partner: some attempt survived, so the next survivor is compared.
	partner, agreed, detected, crashed bool
}

// Observe records one finished attempt and reports whether it is the
// task's detection, the first comparison that disagreed. agrees is
// ignored for a crashed attempt and for the first survivor, which has no
// one to agree with.
func (r *Recovery) Observe(crashed, agrees bool) (detected bool) {
	r.attempts++
	if crashed {
		r.crashed = true
		return false
	}
	detected = r.partner && !agrees && !r.detected
	r.agreed = r.agreed || r.partner && agrees
	r.detected = r.detected || detected
	r.partner = true
	return detected
}

// Decide ends a round: Adopt once two survivors agreed, GiveUp once
// maxAttempts attempts ran without that, Reexecute otherwise.
func (r *Recovery) Decide(maxAttempts int) Verdict {
	switch {
	case r.agreed:
		return Adopt
	case int(r.attempts) >= maxAttempts:
		return GiveUp
	}
	return Reexecute
}

// Attempts returns the number of attempts observed, the index of the next.
func (r *Recovery) Attempts() int { return int(r.attempts) }

// Detected reports whether a comparison disagreed (an SDC was detected).
func (r *Recovery) Detected() bool { return r.detected }

// Crashed reports whether any attempt crashed (a DUE).
func (r *Recovery) Crashed() bool { return r.crashed }
