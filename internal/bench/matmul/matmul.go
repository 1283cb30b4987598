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
	"appfit/internal/cluster"
	"appfit/internal/rt"
	"appfit/internal/xrand"
)

// Params sizes the workload: matrices are (Nb·B)² doubles in Nb×Nb blocks
// of B×B.
type Params struct {
	Nb, B int
}

// ParamsFor returns parameters at a scale. Medium's 32³ = 32768 gemm tasks
// sit in the paper's fine-task band.
func ParamsFor(s workload.Scale) Params {
	switch s {
	case workload.Tiny:
		return Params{Nb: 3, B: 8}
	case workload.Medium:
		return Params{Nb: 32, B: 64}
	default:
		return Params{Nb: 8, B: 32}
	}
}

// Tasks returns the gemm task count (excluding init tasks).
func (p Params) Tasks() int { return p.Nb * p.Nb * p.Nb }

// W is the matmul workload.
type W struct{}

// New returns the workload.
func New() workload.Workload { return W{} }

// Name implements workload.Workload.
func (W) Name() string { return "matmul" }

// Distributed implements workload.Workload.
func (W) Distributed() bool { return true }

// Description implements workload.Workload.
func (W) Description() string { return "Matrix Multiplication using CBLAS" }

// PaperSize implements workload.Workload.
func (W) PaperSize() string { return "Matrix size 9216x9216 doubles and block size 1024x1024" }

// InputBytes implements workload.Workload: A and B.
func (W) InputBytes(s workload.Scale) int64 {
	p := ParamsFor(s)
	n := int64(p.Nb) * int64(p.B)
	return 2 * n * n * 8
}

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
func graph(g *workload.Graph, p Params) {
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

// BuildRT implements workload.Workload.
func (W) BuildRT(r *rt.Runtime, s workload.Scale) workload.Verifier {
	p := ParamsFor(s)
	bb := p.B * p.B
	mk := func() []buffer.F64 {
		m := make([]buffer.F64, p.Nb*p.Nb)
		for i := range m {
			m[i] = buffer.NewF64(bb)
		}
		return m
	}
	mats := [3][]buffer.F64{mk(), mk(), mk()}
	A, B, C := mats[0], mats[1], mats[2]
	graph(workload.NewRTGraph(r, func(reg workload.Region) buffer.Buffer {
		return mats[reg.Arr-'A'][int(reg.I)*p.Nb+int(reg.J)]
	}), p)
	return func() error {
		// Verify one block row against a serial reference (full naive
		// verification at Tiny scale, sampled otherwise).
		rows := p.Nb
		if s != workload.Tiny {
			rows = 1
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < p.Nb; j++ {
				want := make([]float64, bb)
				for k := 0; k < p.Nb; k++ {
					kern.GemmAdd(want, A[i*p.Nb+k], B[k*p.Nb+j], p.B)
				}
				if d := kern.MaxAbsDiff(want, C[i*p.Nb+j]); d > 1e-9*(1+kern.FrobNorm(want)) {
					return fmt.Errorf("matmul: C[%d][%d] off by %g", i, j, d)
				}
			}
		}
		return nil
	}
}

// BuildJob implements workload.Workload.
func (w W) BuildJob(s workload.Scale, nodes int, cm workload.CostModel) cluster.Job {
	p := ParamsFor(s)
	g := workload.NewJobGraph(w.Name(), w.InputBytes(s), 2*p.Nb*p.Nb+p.Tasks(), nodes, cm)
	graph(g, p)
	return g.Job()
}
