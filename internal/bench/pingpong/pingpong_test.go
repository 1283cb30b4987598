package pingpong

import (
	"math"
	"testing"

	"appfit/internal/bench/workload"
)

func TestExpectedClosedForm(t *testing.T) {
	// Both partners converge to the pair mean (0.5) after one exchange
	// and then advance by exactly 1 per iteration: value = 0.5 + iters.
	for iters := 1; iters <= 10; iters++ {
		for rk := 0; rk < 4; rk++ {
			want := 0.5 + float64(iters)
			if got := expected(rk, iters); math.Abs(got-want) > 1e-12 {
				t.Fatalf("expected(%d,%d) = %g, want %g", rk, iters, got, want)
			}
		}
	}
}

func TestExpectedZeroIters(t *testing.T) {
	if expected(0, 0) != 0 || expected(1, 0) != 1 {
		t.Fatal("initial values wrong")
	}
}

func TestCombine(t *testing.T) {
	mine := []float64{0, 2}
	theirs := []float64{2, 0}
	combine(mine, theirs)
	if mine[0] != 2 || mine[1] != 2 {
		t.Fatalf("combine = %v", mine)
	}
}

func TestParams(t *testing.T) {
	for _, s := range []workload.Scale{workload.Tiny, workload.Small, workload.Medium} {
		p := sizes[s]
		if p.Ranks%2 != 0 {
			t.Fatalf("%v: ranks must be even", s)
		}
		if p.N%p.B != 0 {
			t.Fatalf("%v: N %% B != 0", s)
		}
	}
	if n := sizes[workload.Medium].tasks(); n < 10000 {
		t.Fatalf("medium task count %d too small for a fine-task benchmark", n)
	}
}

func TestJobPairsCrossNodes(t *testing.T) {
	// With ≥2 nodes, rank pairs (2p, 2p+1) land on different nodes so
	// every iteration pays a transfer.
	job := Workload.BuildJob(workload.Tiny, 2, workload.DefaultCostModel())
	crossEdges := 0
	for _, task := range job.Tasks {
		for k, d := range task.Deps {
			if job.Tasks[d].Node != task.Node && task.DepBytes[k] > 0 {
				crossEdges++
			}
		}
	}
	if crossEdges == 0 {
		t.Fatal("pingpong produced no cross-node communication")
	}
}
