package vote

import "testing"

// attempt is one finished attempt as the rule sees it.
type attempt struct{ crashed, agrees bool }

// script turns outcomes — one letter per attempt, in attempt order: C
// clean, S SDC, D DUE — into what an engine whose SDCs never coincide
// feeds the rule: a survivor agrees when it and an earlier one are clean.
func script(outcomes string) []attempt {
	var out []attempt
	clean := false
	for _, o := range outcomes {
		out = append(out, attempt{crashed: o == 'D', agrees: o == 'C' && clean})
		clean = clean || o == 'C'
	}
	return out
}

// play drives rule the way both engines do: primary and replica are the
// first round, each re-execution a round of its own. It returns the final
// verdict and how many attempts were the task's detection.
func play(t *testing.T, rule *Recovery, atts []attempt, maxAttempts int) (Verdict, int) {
	detections := 0
	next := 0
	observe := func() {
		a := attempt{agrees: true} // past the script: a clean, agreeing run
		if next < len(atts) {
			a = atts[next]
		}
		next++
		if rule.Observe(a.crashed, a.agrees) {
			detections++
		}
	}
	observe()
	observe()
	for {
		if v := rule.Decide(maxAttempts); v != Reexecute {
			return v, detections
		}
		if next >= maxAttempts {
			t.Fatalf("rule re-executes after %d of %d attempts", next, maxAttempts)
		}
		observe()
	}
}

// TestRecoveryRule walks every path of Figure 2 through the rule. The
// last two rows are where the simulator's counting used to differ:
// it counted an SDC per recovery round (2 on the first) and one with no
// comparison partner (1 on the second).
func TestRecoveryRule(t *testing.T) {
	for _, tc := range recoveryRows {
		var rule Recovery
		v, det := play(t, &rule, script(tc.outcomes), tc.max)
		if v != tc.verdict || rule.Attempts() != tc.attempts || det != tc.detections ||
			rule.Detected() != (det > 0) || rule.Crashed() != tc.crashed {
			t.Errorf("%s (%s, max %d): verdict %d after %d attempts, %d detections, crashed %t; want %d after %d, %d, %t",
				tc.name, tc.outcomes, tc.max, v, rule.Attempts(), det, rule.Crashed(),
				tc.verdict, tc.attempts, tc.detections, tc.crashed)
		}
	}
}

var recoveryRows = []struct {
	name       string
	outcomes   string
	max        int
	verdict    Verdict
	attempts   int
	detections int
	crashed    bool
}{
	{"clean pair", "CC", 8, Adopt, 2, 0, false},
	{"SDC in primary", "SCC", 8, Adopt, 3, 1, false},
	{"SDC in replica", "CSC", 8, Adopt, 3, 1, false},
	{"SDC in both", "SSCC", 8, Adopt, 4, 1, false},
	{"DUE in primary", "DCC", 8, Adopt, 3, 0, true},
	{"DUE in replica", "CDC", 8, Adopt, 3, 0, true},
	{"DUE in both", "DDCC", 8, Adopt, 4, 0, true},
	{"SDCs exhaust", "SSSSSSSS", 5, GiveUp, 5, 1, false},
	{"DUEs exhaust", "DDDDDDDD", 4, GiveUp, 4, 0, true},
	{"SDC, clean, SDC, clean", "SCSC", 8, Adopt, 4, 1, false},
	{"SDC and DUE, then only DUEs", "SDDDDDDD", 8, GiveUp, 8, 0, true},
}

// FuzzRecoveryRule feeds the rule arbitrary attempts — byte bit 0 crashed,
// bit 1 agrees, whether or not an engine could produce that — and checks
// it never adopts without two agreeing survivors, never runs more than
// maxAttempts attempts, and detects at most once.
func FuzzRecoveryRule(f *testing.F) {
	for _, tc := range recoveryRows {
		var b []byte
		for _, a := range script(tc.outcomes) {
			var x byte
			if a.crashed {
				x |= 1
			}
			if a.agrees {
				x |= 2
			}
			b = append(b, x)
		}
		f.Add(b, uint8(tc.max))
	}
	f.Fuzz(func(t *testing.T, data []byte, m uint8) {
		maxAttempts := 3 + int(m%14)
		var atts []attempt
		for _, x := range data {
			atts = append(atts, attempt{crashed: x&1 != 0, agrees: x&2 != 0})
		}
		var rule Recovery
		v, det := play(t, &rule, atts, maxAttempts)
		if rule.Attempts() > maxAttempts || det > 1 || rule.Detected() != (det > 0) {
			t.Fatalf("%d of %d attempts, %d detections (Detected %t)", rule.Attempts(), maxAttempts, det, rule.Detected())
		}
		survivors, agreed := 0, false
		for i := 0; i < rule.Attempts(); i++ {
			a := attempt{agrees: true}
			if i < len(atts) {
				a = atts[i]
			}
			if !a.crashed {
				agreed = agreed || a.agrees && survivors > 0
				survivors++
			}
		}
		if (v == Adopt) != agreed {
			t.Fatalf("verdict %d with agreement between two survivors %t", v, agreed)
		}
	})
}
