// Package matmul implements the blocked matrix-multiplication benchmark
// (Table I: matrix 9216×9216 doubles, block 1024×1024, "using CBLAS" — here
// a pure-Go gemm kernel, DESIGN.md §2). C[i][j] accumulates A[i][k]·B[k][j]
// over k, one gemm task per (i, j, k) triple; the k-accumulations on each C
// block serialize through inout dependencies while independent C blocks run
// in parallel. In the paper this is a distributed benchmark; blocks are
// owned block-cyclically by node.
package matmul

import (
	"fmt"

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/rt"
	"appfit/internal/xrand"
)

// params sizes the workload: matrices are (Nb·B)² doubles in Nb×Nb blocks
// of B×B.
type params struct {
	Nb, B int
}

// sizes holds the parameters per scale. Medium's 32³ = 32768 gemm tasks
// sit in the paper's fine-task band.
var sizes = [...]params{
	workload.Tiny:   {Nb: 3, B: 8},
	workload.Small:  {Nb: 8, B: 32},
	workload.Medium: {Nb: 32, B: 64},
}

// tasks returns the gemm task count (excluding init tasks).
func (p params) tasks() int { return p.Nb * p.Nb * p.Nb }

// Workload is the matmul benchmark.
var Workload = workload.New(workload.Spec{
	Name:        "matmul",
	Description: "Matrix Multiplication using CBLAS",
	PaperSize:   "Matrix size 9216x9216 doubles and block size 1024x1024",
	Distributed: true,
	// A and B.
	InputBytes: func(s workload.Scale) int64 {
		n := int64(sizes[s].Nb) * int64(sizes[s].B)
		return 2 * n * n * 8
	},
	Tasks: func(s workload.Scale) int { return 2*sizes[s].Nb*sizes[s].Nb + sizes[s].tasks() },
	Graph: func(g *workload.Graph, s workload.Scale) { graph(g, sizes[s]) },
	Data:  data,
})

func fillBlock(b buffer.F64, seed uint64) {
	r := xrand.New(seed)
	for i := range b {
		b[i] = r.NormFloat64()
	}
}

// graph states the multiplication's task graph: init tasks materialize every
// A and B block on its owner, then one gemm per (k, i, j) accumulates
// A[i][k]·B[k][j] into C[i][j]. Blocks are owned block-cyclically; a gemm
// runs on the owner of its C block and pulls A/B blocks over the network
// when remote.
func graph(g *workload.Graph, p params) {
	blockBytes := int64(p.B) * int64(p.B) * 8
	key := func(m rune, i, j int) workload.Region { return workload.Region{Arr: m, I: int32(i), J: int32(j)} }
	owner := func(i, j int) int { return (i*p.Nb + j) % g.Nodes() }
	fill := func(int) rt.TaskFunc { return nil }
	var gemm rt.TaskFunc
	if g.Runs() {
		fill = func(seed int) rt.TaskFunc { return func(ctx *rt.Ctx) { fillBlock(ctx.F64(0), uint64(seed)) } }
		gemm = func(ctx *rt.Ctx) { kern.GemmAdd(ctx.F64(2), ctx.F64(0), ctx.F64(1), p.B) }
	}
	for i := 0; i < p.Nb; i++ {
		for j := 0; j < p.Nb; j++ {
			g.Task("initA", owner(i, j), 0, blockBytes, fill(1000+i*p.Nb+j), workload.WAcc(key('A', i, j), blockBytes))
			g.Task("initB", owner(i, j), 0, blockBytes, fill(2000+i*p.Nb+j), workload.WAcc(key('B', i, j), blockBytes))
		}
	}
	gemmFlops := 2 * int64(p.B) * int64(p.B) * int64(p.B)
	for k := 0; k < p.Nb; k++ {
		for i := 0; i < p.Nb; i++ {
			for j := 0; j < p.Nb; j++ {
				g.Task("gemm", owner(i, j), gemmFlops, 3*blockBytes, gemm,
					workload.RAcc(key('A', i, k), blockBytes),
					workload.RAcc(key('B', k, j), blockBytes),
					workload.RWAcc(key('C', i, j), blockBytes))
			}
		}
	}
}

// data allocates A, B and C zeroed: init tasks fill A and B.
func data(s workload.Scale) (func(workload.Region) buffer.Buffer, workload.Verifier) {
	p := sizes[s]
	bb := p.B * p.B
	mk := func() []buffer.F64 {
		m := make([]buffer.F64, p.Nb*p.Nb)
		for i := range m {
			m[i] = buffer.NewF64(bb)
		}
		return m
	}
	mats := [3][]buffer.F64{mk(), mk(), mk()}
	// Full verification at Tiny scale, one block row otherwise.
	rows := 1
	if s == workload.Tiny {
		rows = p.Nb
	}
	return func(reg workload.Region) buffer.Buffer { return mats[reg.Arr-'A'][int(reg.I)*p.Nb+int(reg.J)] },
		func() error { return verify(mats[0], mats[1], mats[2], p, rows) }
}

// verify checks the first rows block rows of C against a serial A·B.
func verify(A, B, C []buffer.F64, p params, rows int) error {
	for i := 0; i < rows; i++ {
		for j := 0; j < p.Nb; j++ {
			want := make([]float64, p.B*p.B)
			for k := 0; k < p.Nb; k++ {
				kern.GemmAdd(want, A[i*p.Nb+k], B[k*p.Nb+j], p.B)
			}
			if d := kern.MaxAbsDiff(want, C[i*p.Nb+j]); !kern.Within(d, 1e-9*(1+kern.FrobNorm(want))) {
				return fmt.Errorf("matmul: C[%d][%d] off by %g", i, j, d)
			}
		}
	}
	return nil
}
