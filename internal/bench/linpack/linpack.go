// Package linpack implements the HPL-shaped Linpack benchmark (Table I:
// matrix 131072 doubles, block 256, 8×8 process grid): blocked dense LU
// factorization over a 2-D block-cyclic process grid — getrf on the diagonal
// block, row/column panel solves, gemm trailing updates — followed by the
// HPL-style verification: solve A·x = b with the factors and check the
// scaled residual. The factorization is pivot-free (the generated matrix is
// diagonally dominant), as in the other block-LU benchmarks of the suite.
package linpack

import (
	"errors"
	"fmt"
	"math"

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/rt"
	"appfit/internal/xrand"
)

// params sizes the workload: an Nb×Nb grid of B×B blocks. The process grid
// the blocks live on follows the machine size (graph).
type params struct {
	Nb, B int
}

// sizes holds the parameters per scale.
var sizes = [...]params{
	workload.Tiny:  {Nb: 4, B: 8},
	workload.Small: {Nb: 12, B: 32},
	// Parallelism of blocked LU is ~Nb²/9 tasks on average; Nb = 96 keeps
	// the paper's largest machine (1024 cores) busy. The paper's own HPL
	// run has Nb = 512.
	workload.Medium: {Nb: 96, B: 24},
}

// tasks returns the task count: getrf Nb, the two panel solves Nb(Nb-1),
// gemm Σk² for k < Nb.
func (p params) tasks() int { return p.Nb + p.Nb*(p.Nb-1) + (p.Nb-1)*p.Nb*(2*p.Nb-1)/6 }

// Workload is the Linpack benchmark.
var Workload = workload.New(workload.Spec{
	Name:        "linpack",
	Description: "HPL Linpack",
	PaperSize:   "Matrix size 131072 doubles, block size 256, 8x8 grid",
	Distributed: true,
	InputBytes: func(s workload.Scale) int64 {
		n := int64(sizes[s].Nb) * int64(sizes[s].B)
		return n * n * 8
	},
	Tasks: func(s workload.Scale) int { return sizes[s].tasks() },
	Graph: func(g *workload.Graph, s workload.Scale) { graph(g, sizes[s]) },
	Data: func(s workload.Scale) (func(workload.Region) buffer.Buffer, workload.Verifier) {
		p := sizes[s]
		blocks := make([][]buffer.F64, p.Nb)
		for i := range blocks {
			blocks[i] = make([]buffer.F64, p.Nb)
			for j := range blocks[i] {
				blocks[i][j] = buffer.NewF64(p.B * p.B)
				initBlock(blocks[i][j], i, j, p.B, p.Nb)
			}
		}
		return data(p, blocks)
	},
})

func initBlock(b buffer.F64, i, j, n, nb int) {
	r := xrand.New(xrand.Combine(0x11A9, uint64(i), uint64(j)))
	for k := range b {
		b[k] = 0.05 * r.NormFloat64()
	}
	if i == j {
		for a := 0; a < n; a++ {
			b[a*n+a] += float64(2 * n * nb)
		}
	}
}

// graph states the factorization's task graph; a failed getrf is recorded
// in g. Block (i, j) lives on grid process (i mod P', j mod Q'), the
// grid chosen per machine size as HPL does: the most square P'×Q' = nodes
// factorization (the paper's 8×8 grid is the 64-node case).
func graph(g *workload.Graph, p params) {
	b := int64(p.B)
	blockBytes := b * b * 8
	key := func(i, j int) workload.Region { return workload.Region{Arr: 'A', I: int32(i), J: int32(j)} }
	gp := 1
	for f := 2; f*f <= g.Nodes(); f++ {
		if g.Nodes()%f == 0 {
			gp = f
		}
	}
	gq := g.Nodes() / gp
	owner := func(i, j int) int { return (i%gp)*gq + (j % gq) }
	var getrf, trsmRow, trsmCol, gemm rt.TaskFunc
	if g.Runs() {
		getrf = func(ctx *rt.Ctx) { g.Record(kern.Lu0(ctx.F64(0), p.B)) }
		trsmRow = func(ctx *rt.Ctx) { kern.Fwd(ctx.F64(0), ctx.F64(1), p.B) }
		trsmCol = func(ctx *rt.Ctx) { kern.Bdiv(ctx.F64(0), ctx.F64(1), p.B) }
		gemm = func(ctx *rt.Ctx) { kern.GemmSub(ctx.F64(2), ctx.F64(0), ctx.F64(1), p.B) }
	}
	for k := 0; k < p.Nb; k++ {
		g.Task("getrf", owner(k, k), 2*b*b*b/3, blockBytes, getrf, workload.RWAcc(key(k, k), blockBytes))
		for j := k + 1; j < p.Nb; j++ {
			g.Task("trsm-row", owner(k, j), b*b*b, 2*blockBytes, trsmRow,
				workload.RAcc(key(k, k), blockBytes), workload.RWAcc(key(k, j), blockBytes))
		}
		for i := k + 1; i < p.Nb; i++ {
			g.Task("trsm-col", owner(i, k), b*b*b, 2*blockBytes, trsmCol,
				workload.RAcc(key(k, k), blockBytes), workload.RWAcc(key(i, k), blockBytes))
		}
		for i := k + 1; i < p.Nb; i++ {
			for j := k + 1; j < p.Nb; j++ {
				g.Task("gemm", owner(i, j), 2*b*b*b, 3*blockBytes, gemm,
					workload.RAcc(key(i, k), blockBytes), workload.RAcc(key(k, j), blockBytes),
					workload.RWAcc(key(i, j), blockBytes))
			}
		}
	}
}

// data maps the factorization onto blocks, in place, and returns the check
// that holds the factors to a copy of the input.
func data(p params, blocks [][]buffer.F64) (func(workload.Region) buffer.Buffer, workload.Verifier) {
	orig := make([][]buffer.F64, p.Nb)
	for i := range orig {
		orig[i] = make([]buffer.F64, p.Nb)
		for j := range orig[i] {
			orig[i][j] = blocks[i][j].Clone().(buffer.F64)
		}
	}
	return func(reg workload.Region) buffer.Buffer { return blocks[reg.I][reg.J] },
		func() error { return verifyResidual(blocks, orig, p) }
}

// ErrResidual is the sentinel wrapped when the scaled residual exceeds
// the acceptance threshold.
var ErrResidual = errors.New("linpack: residual too large")

// verifyResidual performs the HPL check: with b = A·1s, solve L·U·x = b
// using the computed factors and require the scaled residual
// ||A·x − b||∞ / (||A||_F · n) to be tiny.
func verifyResidual(blocks, orig [][]buffer.F64, p params) error {
	n := p.Nb * p.B
	// Assemble dense A and the factors' action serially.
	a := make([]float64, n*n)
	for bi := 0; bi < p.Nb; bi++ {
		for bj := 0; bj < p.Nb; bj++ {
			src := orig[bi][bj]
			for r := 0; r < p.B; r++ {
				copy(a[(bi*p.B+r)*n+bj*p.B:], src[r*p.B:(r+1)*p.B])
			}
		}
	}
	lu := make([]float64, n*n)
	for bi := 0; bi < p.Nb; bi++ {
		for bj := 0; bj < p.Nb; bj++ {
			src := blocks[bi][bj]
			for r := 0; r < p.B; r++ {
				copy(lu[(bi*p.B+r)*n+bj*p.B:], src[r*p.B:(r+1)*p.B])
			}
		}
	}
	// b = A · ones.
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += a[i*n+j]
		}
		b[i] = s
	}
	// Forward solve L·y = b (unit lower).
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= lu[i*n+j] * y[j]
		}
		y[i] = s
	}
	// Back solve U·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= lu[i*n+j] * x[j]
		}
		x[i] = s / lu[i*n+i]
	}
	// Residual: x should be all-ones.
	maxRes := 0.0
	for i := 0; i < n; i++ {
		s := -b[i]
		for j := 0; j < n; j++ {
			s += a[i*n+j] * x[j]
		}
		maxRes = max(maxRes, math.Abs(s)) // max propagates a NaN residual
	}
	normA := kern.FrobNorm(a)
	scaled := maxRes / (normA * float64(n))
	if !kern.Within(scaled, 1e-12) {
		return fmt.Errorf("linpack: scaled residual %g too large: %w", scaled, ErrResidual)
	}
	return nil
}
