package fit

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

func TestPaperAnchorValues(t *testing.T) {
	// §IV-A worked example: 2.22e3 FIT for 32 GiB, 2.22 for 32 MiB,
	// 2.22e-3 for 32 KiB.
	r := Roadrunner()
	cases := []struct {
		bytes int64
		want  float64
	}{
		{32_000_000_000, 2.22e3},
		{32_000_000, 2.22},
		{32_000, 2.22e-3},
	}
	for _, c := range cases {
		due, _ := r.TaskFIT(c.bytes)
		if !almostEq(due, c.want, 1e-12) {
			t.Errorf("TaskFIT(%d) DUE = %g, want %g", c.bytes, due, c.want)
		}
	}
}

func TestScale(t *testing.T) {
	r := Roadrunner()
	s := r.Scale(10)
	if !almostEq(s.DUEPer32GB, 2.22e4, 1e-12) || !almostEq(s.SDCPer32GB, 1.11e4, 1e-12) {
		t.Fatalf("Scale(10) = %+v", s)
	}
	if got := r.Scale(1); got != r {
		t.Fatalf("Scale(1) changed rates: %+v", got)
	}
}

func TestTaskFITLinearity(t *testing.T) {
	f := func(kb uint16) bool {
		r := Roadrunner()
		b := int64(kb) + 1
		d1, s1 := r.TaskFIT(b)
		d2, s2 := r.TaskFIT(2 * b)
		return almostEq(d2, 2*d1, 1e-9) && almostEq(s2, 2*s1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// totalFIT returns λF + λSDC for a footprint of argBytes.
func totalFIT(r Rates, argBytes int64) float64 {
	due, sdc := r.TaskFIT(argBytes)
	return due + sdc
}

func TestTaskFITAdditivity(t *testing.T) {
	// λ of a task is the sum of its arguments' λ: splitting a footprint in
	// two must preserve the total.
	r := Roadrunner()
	whole := totalFIT(r, 1<<20)
	parts := totalFIT(r, 1<<19) + totalFIT(r, 1<<19)
	if !almostEq(whole, parts, 1e-12) {
		t.Fatalf("additivity violated: %g vs %g", whole, parts)
	}
}

func TestFailureProb(t *testing.T) {
	if p := FailureProb(0, 100); p != 0 {
		t.Fatalf("zero rate gives p=%g", p)
	}
	if p := FailureProb(100, 0); p != 0 {
		t.Fatalf("zero time gives p=%g", p)
	}
	// 1e9 FIT for 1 hour = 1 expected failure => p = 1-1/e.
	if p := FailureProb(1e9, 1); !almostEq(p, 1-math.Exp(-1), 1e-12) {
		t.Fatalf("FailureProb(1e9,1) = %g", p)
	}
	// Small-rate linearization: 1000 FIT over 1 hour ≈ 1e-6.
	if p := FailureProb(1000, 1); !almostEq(p, 1e-6, 1e-3) {
		t.Fatalf("FailureProb(1000,1) = %g", p)
	}
}

func TestFailureProbMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		lo, hi := float64(a%1000), float64(a%1000)+float64(b%1000)+1
		return FailureProb(lo, 1) <= FailureProb(hi, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEstimator(t *testing.T) {
	e := NewEstimator(Roadrunner().Scale(10))
	task := e.Estimate(7, 32_000)
	if task.ID != 7 || task.ArgBytes != 32_000 {
		t.Fatalf("estimate metadata wrong: %+v", task)
	}
	if !almostEq(task.DUE, 2.22e-2, 1e-9) {
		t.Fatalf("scaled DUE = %g", task.DUE)
	}
	if !almostEq(task.Total(), task.DUE+task.SDC, 1e-15) {
		t.Fatal("Total mismatch")
	}
	if e.rates != Roadrunner().Scale(10) {
		t.Fatal("estimator rates mismatch")
	}
}

func TestThresholdScenario(t *testing.T) {
	// §V-A1: threshold = benchmark FIT at 1× rates; task rates at 10×.
	// The unprotected budget is then 1/10 of the total estimated FIT, so a
	// heuristic must protect ~90% of FIT mass.
	base := Roadrunner()
	input := int64(64 * 1024 * 1024)
	thr := totalFIT(base, input)
	if scaled := totalFIT(base.Scale(10), input); !almostEq(scaled, 10*thr, 1e-12) {
		t.Fatalf("scaled benchmark FIT %g != 10×threshold %g", scaled, thr)
	}
}

func TestStringer(t *testing.T) {
	s := Roadrunner().String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func BenchmarkEstimate(b *testing.B) {
	e := NewEstimator(Roadrunner())
	for i := 0; i < b.N; i++ {
		_ = e.Estimate(uint64(i), int64(i%100000))
	}
}
