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

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/rt"
	"appfit/internal/xrand"
)

// Params sizes the workload: an Nb×Nb grid of B×B blocks on a P×Q process
// grid.
type Params struct {
	Nb, B, P, Q int
}

// ParamsFor returns parameters at a scale (the paper uses an 8×8 grid).
func ParamsFor(s workload.Scale) Params {
	switch s {
	case workload.Tiny:
		return Params{Nb: 4, B: 8, P: 2, Q: 2}
	case workload.Medium:
		// Parallelism of blocked LU is ~Nb²/9 tasks on average; Nb = 96
		// keeps the paper's largest machine (1024 cores) busy. The paper's
		// own HPL run has Nb = 512.
		return Params{Nb: 96, B: 24, P: 8, Q: 8}
	default:
		return Params{Nb: 12, B: 32, P: 4, Q: 4}
	}
}

// W is the Linpack workload.
type W struct{}

// New returns the workload.
func New() workload.Workload { return W{} }

// Name implements workload.Workload.
func (W) Name() string { return "linpack" }

// Distributed implements workload.Workload.
func (W) Distributed() bool { return true }

// Description implements workload.Workload.
func (W) Description() string { return "HPL Linpack" }

// PaperSize implements workload.Workload.
func (W) PaperSize() string { return "Matrix size 131072 doubles, block size 256, 8x8 grid" }

// InputBytes implements workload.Workload.
func (W) InputBytes(s workload.Scale) int64 {
	p := ParamsFor(s)
	n := int64(p.Nb) * int64(p.B)
	return n * n * 8
}

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

// graph states the factorization's task graph; firstErr receives the first
// getrf error. Block (i, j) lives on grid process (i mod P', j mod Q'), the
// grid chosen per machine size as HPL does: the most square P'×Q' = nodes
// factorization (the paper's 8×8 grid is the 64-node case).
func graph(g *workload.Graph, p Params, firstErr *error) {
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
		getrf = func(ctx *rt.Ctx) {
			if err := kern.Lu0(ctx.F64(0), p.B); err != nil && *firstErr == nil {
				*firstErr = err
			}
		}
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

// BuildRT implements workload.Workload.
func (W) BuildRT(r *rt.Runtime, s workload.Scale) workload.Verifier {
	p := ParamsFor(s)
	bb := p.B * p.B
	blocks := make([][]buffer.F64, p.Nb)
	orig := make([][]buffer.F64, p.Nb)
	for i := range blocks {
		blocks[i] = make([]buffer.F64, p.Nb)
		orig[i] = make([]buffer.F64, p.Nb)
		for j := range blocks[i] {
			blocks[i][j] = buffer.NewF64(bb)
			initBlock(blocks[i][j], i, j, p.B, p.Nb)
			orig[i][j] = blocks[i][j].Clone().(buffer.F64)
		}
	}
	var firstErr error
	graph(workload.NewRTGraph(r, func(reg workload.Region) buffer.Buffer { return blocks[reg.I][reg.J] }), p, &firstErr)
	return func() error {
		if firstErr != nil {
			return firstErr
		}
		return VerifyResidual(blocks, orig, p)
	}
}

// ErrResidual is the sentinel wrapped when the scaled residual exceeds
// the acceptance threshold.
var ErrResidual = errors.New("linpack: residual too large")

// VerifyResidual performs the HPL check: with b = A·1s, solve L·U·x = b
// using the computed factors and require the scaled residual
// ||A·x − b||∞ / (||A||_F · n) to be tiny.
func VerifyResidual(blocks, orig [][]buffer.F64, p Params) error {
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
		if s < 0 {
			s = -s
		}
		if s > maxRes {
			maxRes = s
		}
	}
	normA := kern.FrobNorm(a)
	scaled := maxRes / (normA * float64(n))
	if scaled > 1e-12 {
		return fmt.Errorf("linpack: scaled residual %g too large: %w", scaled, ErrResidual)
	}
	return nil
}

// BuildJob implements workload.Workload.
func (w W) BuildJob(s workload.Scale, nodes int, cm workload.CostModel) cluster.Job {
	p := ParamsFor(s)
	g := workload.NewJobGraph(w.Name(), w.InputBytes(s), p.Nb+p.Nb*(p.Nb-1)+(p.Nb-1)*p.Nb*(2*p.Nb-1)/6, nodes, cm)
	graph(g, p, nil)
	return g.Job()
}
