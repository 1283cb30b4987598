package linpack

import (
	"errors"
	"math"
	"testing"

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/rt"
)

func TestGridChoicePerMachine(t *testing.T) {
	// Owners must cover every node for the machine sizes the Figure 6
	// sweep uses.
	for _, nodes := range []int{1, 2, 4, 8, 16, 32, 64} {
		job := Workload.BuildJob(workload.Tiny, nodes, workload.DefaultCostModel())
		owned := map[int]bool{}
		for _, task := range job.Tasks {
			if task.Node < 0 || task.Node >= nodes {
				t.Fatalf("nodes=%d: task on node %d", nodes, task.Node)
			}
			owned[task.Node] = true
		}
		if nodes <= 16 && len(owned) != nodes {
			t.Fatalf("nodes=%d: only %d nodes own blocks", nodes, len(owned))
		}
	}
}

func TestResidualVerifierCatchesWrongFactors(t *testing.T) {
	// Run the factorization, then corrupt one factor block: the HPL
	// residual check must fail.
	p := sizes[workload.Tiny]
	r := rt.New(rt.Config{Workers: 2})
	w := Workload
	verify := w.BuildRT(r, workload.Tiny)
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := verify(); err != nil {
		t.Fatal(err)
	}
	_ = p
	// Direct check of verifyResidual's sensitivity on a tiny instance.
	pp := params{Nb: 2, B: 4}
	blocks, orig := serialFactors(t, pp)
	if err := verifyResidual(blocks, orig, pp); err != nil {
		t.Fatalf("clean factorization rejected: %v", err)
	}
	blocks[1][0][3] += 0.5
	if err := verifyResidual(blocks, orig, pp); err == nil {
		t.Fatal("corrupted factor accepted")
	}
}

// serialFactors builds a pp-sized matrix and factors it serially with the
// workload's kernels, returning the factors and the original blocks.
func serialFactors(t *testing.T, pp params) (blocks, orig [][]buffer.F64) {
	t.Helper()
	bb := pp.B * pp.B
	blocks = make([][]buffer.F64, pp.Nb)
	orig = make([][]buffer.F64, pp.Nb)
	for i := range blocks {
		blocks[i] = make([]buffer.F64, pp.Nb)
		orig[i] = make([]buffer.F64, pp.Nb)
		for j := range blocks[i] {
			blocks[i][j] = buffer.NewF64(bb)
			initBlock(blocks[i][j], i, j, pp.B, pp.Nb)
			orig[i][j] = blocks[i][j].Clone().(buffer.F64)
		}
	}
	// Factor serially with the same kernels.
	for k := 0; k < pp.Nb; k++ {
		if err := kern.Lu0(blocks[k][k], pp.B); err != nil {
			t.Fatal(err)
		}
		for j := k + 1; j < pp.Nb; j++ {
			kern.Fwd(blocks[k][k], blocks[k][j], pp.B)
		}
		for i := k + 1; i < pp.Nb; i++ {
			kern.Bdiv(blocks[k][k], blocks[i][k], pp.B)
		}
		for i := k + 1; i < pp.Nb; i++ {
			for j := k + 1; j < pp.Nb; j++ {
				kern.GemmSub(blocks[i][j], blocks[i][k], blocks[k][j], pp.B)
			}
		}
	}
	return blocks, orig
}

// TestVerifyResidualRejectsNaN puts one NaN in a correct factorization: the
// residual check must fail rather than let the NaN through the max.
func TestVerifyResidualRejectsNaN(t *testing.T) {
	pp := params{Nb: 2, B: 4}
	blocks, orig := serialFactors(t, pp)
	if err := verifyResidual(blocks, orig, pp); err != nil {
		t.Fatalf("clean factorization rejected: %v", err)
	}
	blocks[0][1][6] = math.NaN()
	if err := verifyResidual(blocks, orig, pp); err == nil {
		t.Fatal("a NaN in a factor block was accepted")
	}
}

func TestParams(t *testing.T) {
	for _, s := range []workload.Scale{workload.Tiny, workload.Small, workload.Medium} {
		p := sizes[s]
		if p.Nb < 2 || p.B < 2 || p.P < 1 || p.Q < 1 {
			t.Fatalf("%v: bad params %+v", s, p)
		}
	}
}

// TestFailedFactorUnderReplication runs a matrix whose first diagonal block
// is zero fully replicated on two workers: both attempts of getrf(0) fail,
// concurrently, and the verifier must report the kernel's error.
func TestFailedFactorUnderReplication(t *testing.T) {
	p := params{Nb: 3, B: 4}
	blocks := make([][]buffer.F64, p.Nb)
	for i := range blocks {
		blocks[i] = make([]buffer.F64, p.Nb)
		for j := range blocks[i] {
			blocks[i][j] = buffer.NewF64(p.B * p.B)
			if i != 0 || j != 0 {
				initBlock(blocks[i][j], i, j, p.B, p.Nb)
			}
		}
	}
	r := rt.New(rt.Config{Workers: 2, Selector: core.ReplicateAll{}})
	verifyRT := build(r, p, blocks)
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := verifyRT(); !errors.Is(err, kern.ErrNumeric) {
		t.Fatalf("verifier returned %v, want a kern.ErrNumeric", err)
	}
}

// build runs the factorization of blocks at p, in place, through the shared
// runtime build and returns its verifier.
func build(r *rt.Runtime, p params, blocks [][]buffer.F64) workload.Verifier {
	return workload.New(workload.Spec{
		Graph: func(g *workload.Graph, _ workload.Scale) { graph(g, p) },
		Data: func(workload.Scale) (func(workload.Region) buffer.Buffer, workload.Verifier) {
			return data(p, blocks)
		},
	}).BuildRT(r, workload.Tiny)
}
