package matmul

import (
	"math"
	"testing"

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
)

func TestParams(t *testing.T) {
	for _, s := range []workload.Scale{workload.Tiny, workload.Small, workload.Medium} {
		p := sizes[s]
		if p.Nb < 2 || p.B < 2 {
			t.Fatalf("%v: degenerate %+v", s, p)
		}
		if p.tasks() != p.Nb*p.Nb*p.Nb {
			t.Fatal("task count formula")
		}
	}
	if n := sizes[workload.Medium].tasks(); n < 25000 || n > 48000 {
		t.Fatalf("medium gemm count %d outside the paper's 25K-48K band", n)
	}
}

func TestJobStructure(t *testing.T) {
	p := sizes[workload.Tiny]
	job := Workload.BuildJob(workload.Tiny, 4, workload.DefaultCostModel())
	wantInits := 2 * p.Nb * p.Nb
	if len(job.Tasks) != wantInits+p.tasks() {
		t.Fatalf("job has %d tasks, want %d init + %d gemm", len(job.Tasks), wantInits, p.tasks())
	}
	// k-chains: gemm(i,j,k) for k>0 must depend on gemm(i,j,k-1) through
	// the inout C block; verify chains exist (every late gemm has ≥1 dep).
	for i := wantInits + p.Nb*p.Nb; i < len(job.Tasks); i++ {
		if len(job.Tasks[i].Deps) == 0 {
			t.Fatalf("gemm task %d has no dependencies", i)
		}
	}
	// Distribution: all 4 nodes own work.
	owned := map[int]int{}
	for _, task := range job.Tasks {
		owned[task.Node]++
	}
	for n := 0; n < 4; n++ {
		if owned[n] == 0 {
			t.Fatalf("node %d owns nothing", n)
		}
	}
}

func TestInputBytes(t *testing.T) {
	p := sizes[workload.Tiny]
	n := int64(p.Nb) * int64(p.B)
	if got := Workload.InputBytes(workload.Tiny); got != 2*n*n*8 {
		t.Fatalf("input bytes %d", got)
	}
}

// TestVerifyRejectsNaN feeds the verifier a correct product with one NaN in
// it; the tolerance check must fail rather than skip the NaN.
func TestVerifyRejectsNaN(t *testing.T) {
	p := params{Nb: 2, B: 4}
	var mats [3][]buffer.F64
	for m := range mats {
		mats[m] = make([]buffer.F64, p.Nb*p.Nb)
		for i := range mats[m] {
			mats[m][i] = buffer.NewF64(p.B * p.B)
			if m < 2 {
				fillBlock(mats[m][i], uint64(1000*(m+1)+i))
			}
		}
	}
	A, B, C := mats[0], mats[1], mats[2]
	for k := 0; k < p.Nb; k++ {
		for i := 0; i < p.Nb; i++ {
			for j := 0; j < p.Nb; j++ {
				kern.GemmAdd(C[i*p.Nb+j], A[i*p.Nb+k], B[k*p.Nb+j], p.B)
			}
		}
	}
	if err := verify(A, B, C, p, p.Nb); err != nil {
		t.Fatalf("correct product rejected: %v", err)
	}
	C[3][5] = math.NaN()
	if err := verify(A, B, C, p, p.Nb); err == nil {
		t.Fatal("a NaN in C was accepted")
	}
}
