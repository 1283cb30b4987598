package cholesky

import (
	"testing"

	"appfit/internal/bench/workload"
)

func TestTaskCountFormula(t *testing.T) {
	// Against a direct enumeration of the four loops.
	for _, nb := range []int{2, 4, 7, 12} {
		p := Params{Nb: nb, B: 4}
		count := 0
		for k := 0; k < nb; k++ {
			count++ // potrf
			for i := k + 1; i < nb; i++ {
				count++ // trsm
			}
			for i := k + 1; i < nb; i++ {
				count++ // syrk
				for j := k + 1; j < i; j++ {
					count++ // gemm
				}
			}
		}
		if p.Tasks() != count {
			t.Fatalf("Nb=%d: formula %d, enumerated %d", nb, p.Tasks(), count)
		}
	}
}

func TestSPDConstruction(t *testing.T) {
	p := Params{Nb: 3, B: 8}
	tiles := SPD(p)
	if len(tiles) != 3 || len(tiles[2]) != 3 || len(tiles[0]) != 1 {
		t.Fatal("lower-triangular tile shape wrong")
	}
	// Diagonal tiles symmetric with strong diagonal.
	for k := 0; k < p.Nb; k++ {
		d := tiles[k][k]
		for a := 0; a < p.B; a++ {
			for b := 0; b < a; b++ {
				if d[a*p.B+b] != d[b*p.B+a] {
					t.Fatalf("tile %d not symmetric", k)
				}
			}
			if d[a*p.B+a] < float64(p.Nb*p.B)/2 {
				t.Fatalf("tile %d diagonal too weak: %g", k, d[a*p.B+a])
			}
		}
	}
}

func TestJobShape(t *testing.T) {
	p := ParamsFor(workload.Tiny)
	job := W{}.BuildJob(workload.Tiny, 1, workload.DefaultCostModel())
	if len(job.Tasks) != p.Tasks() {
		t.Fatalf("job %d tasks, want %d", len(job.Tasks), p.Tasks())
	}
	// The first task is the first potrf (a root); the last gemm/syrk of
	// the final iteration depends on earlier work.
	if len(job.Tasks[0].Deps) != 0 {
		t.Fatal("first potrf must be a root")
	}
	if len(job.Tasks[len(job.Tasks)-1].Deps) == 0 {
		t.Fatal("final task must have dependencies")
	}
}
