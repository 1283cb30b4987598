// Package sparselu implements the SparseLU benchmark (Table I: LU
// decomposition, matrix 12800×12800 doubles, block 200×200): blocked LU
// factorization of a sparse block matrix, the canonical OmpSs/BSC
// application-repository workload. A deterministic sparsity pattern leaves
// some blocks empty; fill-in blocks materialize during the update phase
// (their first bmod writes them), which is why the task graph is irregular —
// exactly the heterogeneity App_FIT exploits (§V-A1 notes SparseLU's
// replication fraction swings strongly between 5× and 10× rates).
package sparselu

import (
	"fmt"

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/rt"
	"appfit/internal/xrand"
)

// params sizes the workload: an Nb×Nb grid of B×B blocks.
type params struct {
	Nb, B int
}

// sizes holds the parameters per scale.
var sizes = [...]params{
	workload.Tiny:   {Nb: 4, B: 8},
	workload.Small:  {Nb: 12, B: 25},
	workload.Medium: {Nb: 32, B: 50},
}

// present reports whether block (i, j) exists in the initial sparse
// structure: the diagonal always does, off-diagonals follow a deterministic
// pseudo-random pattern with ~60% density (the BSC benchmark uses a similar
// generator-driven pattern).
func present(i, j int) bool {
	if i == j {
		return true
	}
	return xrand.Combine(0x5917, uint64(i), uint64(j))%100 < 60
}

// structure returns the block presence matrix after symbolic factorization:
// fill[i][j] is true if block (i, j) is non-empty at any point during the
// factorization (original or fill-in).
func structure(nb int) [][]bool {
	fill := make([][]bool, nb)
	for i := range fill {
		fill[i] = make([]bool, nb)
		for j := range fill[i] {
			fill[i][j] = present(i, j)
		}
	}
	for k := 0; k < nb; k++ {
		for i := k + 1; i < nb; i++ {
			if !fill[i][k] {
				continue
			}
			for j := k + 1; j < nb; j++ {
				if fill[k][j] {
					fill[i][j] = true // bmod creates fill-in
				}
			}
		}
	}
	return fill
}

// Workload is the SparseLU benchmark. Its task count depends on the fill
// pattern, so a job's task list is not pre-sized.
var Workload = workload.New(workload.Spec{
	Name:        "sparselu",
	Description: "LU decomposition",
	PaperSize:   "Matrix size 12800x12800 doubles, block size 200x200",
	InputBytes: func(s workload.Scale) int64 {
		n := int64(sizes[s].Nb) * int64(sizes[s].B)
		return n * n * 8
	},
	Graph: func(g *workload.Graph, s workload.Scale) { graph(g, sizes[s]) },
	Data: func(s workload.Scale) (func(workload.Region) buffer.Buffer, workload.Verifier) {
		p := sizes[s]
		blocks, orig := matrix(p, structure(p.Nb))
		return data(p, blocks, orig)
	},
})

// initBlock fills a present block with deterministic values; diagonal blocks
// are made diagonally dominant so pivot-free LU stays stable.
func initBlock(b buffer.F64, i, j, n int) {
	r := xrand.New(xrand.Combine(0xB10C, uint64(i), uint64(j)))
	for k := range b {
		b[k] = 0.1 * r.NormFloat64()
	}
	if i == j {
		for a := 0; a < n; a++ {
			b[a*n+a] += float64(4 * n)
		}
	}
}

// graph states the factorization's task graph over the block structure
// (structure); a failed lu0 is recorded in g. Block (i, j) lives on node
// (i·Nb+j) mod nodes.
func graph(g *workload.Graph, p params) {
	fill := structure(p.Nb)
	b := int64(p.B)
	blockBytes := b * b * 8
	key := func(i, j int) workload.Region { return workload.Region{Arr: 'A', I: int32(i), J: int32(j)} }
	owner := func(i, j int) int { return (i*p.Nb + j) % g.Nodes() }
	var lu0, fwd, bdiv, bmod rt.TaskFunc
	if g.Runs() {
		lu0 = func(ctx *rt.Ctx) { g.Record(kern.Lu0(ctx.F64(0), p.B)) }
		fwd = func(ctx *rt.Ctx) { kern.Fwd(ctx.F64(0), ctx.F64(1), p.B) }
		bdiv = func(ctx *rt.Ctx) { kern.Bdiv(ctx.F64(0), ctx.F64(1), p.B) }
		bmod = func(ctx *rt.Ctx) { kern.GemmSub(ctx.F64(2), ctx.F64(0), ctx.F64(1), p.B) }
	}
	for k := 0; k < p.Nb; k++ {
		g.Task("lu0", owner(k, k), 2*b*b*b/3, blockBytes, lu0, workload.RWAcc(key(k, k), blockBytes))
		for j := k + 1; j < p.Nb; j++ {
			if fill[k][j] {
				g.Task("fwd", owner(k, j), b*b*b, 2*blockBytes, fwd,
					workload.RAcc(key(k, k), blockBytes), workload.RWAcc(key(k, j), blockBytes))
			}
		}
		for i := k + 1; i < p.Nb; i++ {
			if fill[i][k] {
				g.Task("bdiv", owner(i, k), b*b*b, 2*blockBytes, bdiv,
					workload.RAcc(key(k, k), blockBytes), workload.RWAcc(key(i, k), blockBytes))
			}
		}
		for i := k + 1; i < p.Nb; i++ {
			if !fill[i][k] {
				continue
			}
			for j := k + 1; j < p.Nb; j++ {
				if fill[k][j] {
					g.Task("bmod", owner(i, j), 2*b*b*b, 3*blockBytes, bmod,
						workload.RAcc(key(i, k), blockBytes), workload.RAcc(key(k, j), blockBytes),
						workload.RWAcc(key(i, j), blockBytes))
				}
			}
		}
	}
}

// matrix allocates the blocks of the fill structure, initialises the present
// ones, and returns them with a copy of the original matrix.
func matrix(p params, fill [][]bool) (blocks, orig [][]buffer.F64) {
	blocks = make([][]buffer.F64, p.Nb)
	orig = make([][]buffer.F64, p.Nb)
	for i := range blocks {
		blocks[i] = make([]buffer.F64, p.Nb)
		orig[i] = make([]buffer.F64, p.Nb)
		for j := range blocks[i] {
			if fill[i][j] {
				blocks[i][j] = buffer.NewF64(p.B * p.B)
				if present(i, j) {
					initBlock(blocks[i][j], i, j, p.B)
				}
				orig[i][j] = blocks[i][j].Clone().(buffer.F64)
			}
		}
	}
	return blocks, orig
}

// data maps the factorization onto blocks, in place, and returns the check
// that holds the factors to orig.
func data(p params, blocks, orig [][]buffer.F64) (func(workload.Region) buffer.Buffer, workload.Verifier) {
	return func(reg workload.Region) buffer.Buffer { return blocks[reg.I][reg.J] },
		func() error { return verify(blocks, orig, p) }
}

// verify checks L·U == A₀ block-wise from the factored blocks and the
// original orig (absent blocks are nil and stand for zero).
func verify(blocks, orig [][]buffer.F64, p params) error {
	for i := 0; i < p.Nb; i++ {
		for j := 0; j < p.Nb; j++ {
			rec := make([]float64, p.B*p.B)
			kmax := i
			if j < i {
				kmax = j
			}
			for k := 0; k <= kmax; k++ {
				var lblk, ublk []float64
				switch {
				case k == i && k == j:
					l, u := kern.SplitLU(blocks[k][k], p.B)
					lblk, ublk = l, u
				case k == i: // row panel: L[i][i] is the diag's unit-lower factor
					if blocks[k][j] == nil {
						continue
					}
					l, _ := kern.SplitLU(blocks[k][k], p.B)
					lblk = l
					ublk = blocks[k][j]
				case k == j: // column panel: U is the diag's upper
					if blocks[i][k] == nil {
						continue
					}
					_, u := kern.SplitLU(blocks[k][k], p.B)
					lblk = blocks[i][k]
					ublk = u
				default:
					if blocks[i][k] == nil || blocks[k][j] == nil {
						continue
					}
					lblk = blocks[i][k]
					ublk = blocks[k][j]
				}
				kern.GemmAdd(rec, lblk, ublk, p.B)
			}
			want := make([]float64, p.B*p.B)
			if orig[i][j] != nil {
				copy(want, orig[i][j])
			}
			if d := kern.MaxAbsDiff(rec, want); !kern.Within(d, 1e-7*(1+kern.FrobNorm(want))) {
				return fmt.Errorf("sparselu: block (%d,%d) residual %g", i, j, d)
			}
		}
	}
	return nil
}
