// Package cholesky implements the tiled right-looking Cholesky factorization
// benchmark (Table I: matrix 16384×16384 doubles, block 512×512): the
// classic OmpSs dataflow showcase with potrf/trsm/syrk/gemm tasks whose
// dependencies the runtime infers from tile accesses. The paper lists it
// among the coarse-grained, low-task-count benchmarks that incur more
// replication under App_FIT (§V-A1).
package cholesky

import (
	"fmt"
	"sync"

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/rt"
	"appfit/internal/xrand"
)

// Params sizes the workload: the matrix is (Nb·B)² in Nb×Nb tiles of B×B.
type Params struct {
	Nb, B int
}

// sizes holds the parameters per scale.
var sizes = [...]Params{
	workload.Tiny:   {Nb: 4, B: 8},
	workload.Small:  {Nb: 12, B: 32},
	workload.Medium: {Nb: 32, B: 64},
}

// tasks returns the kernel task count: potrf Nb, trsm Nb(Nb-1)/2, syrk
// Nb(Nb-1)/2, gemm Nb(Nb-1)(Nb-2)/6.
func (p Params) tasks() int {
	n := p.Nb
	return n + n*(n-1)/2 + n*(n-1)/2 + n*(n-1)*(n-2)/6
}

// Workload is the Cholesky benchmark.
var Workload = workload.New(workload.Spec{
	Name:        "cholesky",
	Description: "Cholesky factorization",
	PaperSize:   "Matrix size 16384x16384 doubles and block size 512x512",
	InputBytes: func(s workload.Scale) int64 {
		n := int64(sizes[s].Nb) * int64(sizes[s].B)
		return n * n * 8
	},
	Tasks: func(s workload.Scale) int { return sizes[s].tasks() },
	Graph: func(g *workload.Graph, s workload.Scale) { graph(g, sizes[s]) },
	Data: func(s workload.Scale) (func(workload.Region) buffer.Buffer, workload.Verifier) {
		return data(sizes[s], spd(sizes[s]))
	},
})

// SPD returns the deterministic lower-triangular tile array of an SPD matrix
// the benchmark factorizes — a random symmetric matrix plus a strong
// diagonal, tiles[i][j] for j <= i only (the factorization touches nothing
// else), each seeded only by (i, j), so every caller — the serial reference
// and every rank of a distributed build — derives bitwise-identical inputs
// without communicating. The array is the caller's to mutate: a copy of
// the one spd generates per Params.
func SPD(p Params) [][]buffer.F64 { return clone2d(spd(p)) }

// memo holds each Params' SPD tiles, generated once. Its arrays are
// read-only: SPD hands out copies and BuildRT reads one as its verifier's
// original. It keeps one lower-triangular array per distinct Params for
// the life of the process, (Nb·(Nb+1)/2)·B²·8 bytes: 0.6 MB at Small,
// ~17 MB at Medium.
type memo struct {
	mu    sync.Mutex
	tiles map[Params][][]buffer.F64 // guarded by mu
}

var spdMemo = memo{tiles: make(map[Params][][]buffer.F64)}

// spd returns p's memoized SPD tiles, generating them on first use. The
// caller must not write them.
func spd(p Params) [][]buffer.F64 {
	spdMemo.mu.Lock()
	defer spdMemo.mu.Unlock()
	tiles, ok := spdMemo.tiles[p]
	if !ok {
		tiles = generate(p)
		spdMemo.tiles[p] = tiles
	}
	return tiles
}

// generate draws p's SPD tiles.
func generate(p Params) [][]buffer.F64 {
	bb := p.B * p.B
	tiles := make([][]buffer.F64, p.Nb)
	for i := range tiles {
		tiles[i] = make([]buffer.F64, i+1)
		for j := 0; j <= i; j++ {
			t := buffer.NewF64(bb)
			r := xrand.New(xrand.Combine(77, uint64(i), uint64(j)))
			for k := range t {
				t[k] = 0.01 * r.NormFloat64()
			}
			if i == j {
				// Symmetrize the diagonal tile and add dominance.
				for a := 0; a < p.B; a++ {
					for b := 0; b < a; b++ {
						m := (t[a*p.B+b] + t[b*p.B+a]) / 2
						t[a*p.B+b], t[b*p.B+a] = m, m
					}
					t[a*p.B+a] += float64(p.Nb * p.B)
				}
			}
			tiles[i][j] = t
		}
	}
	return tiles
}

// clone2d deep-copies the tile array.
func clone2d(tiles [][]buffer.F64) [][]buffer.F64 {
	out := make([][]buffer.F64, len(tiles))
	for i := range tiles {
		out[i] = make([]buffer.F64, len(tiles[i]))
		for j, t := range tiles[i] {
			out[i][j] = buffer.NewF64(len(t))
			copy(out[i][j], t)
		}
	}
	return out
}

// FactorSerial runs the tiled factorization in place in the exact task order
// graph emits (per k: potrf, trsms ascending i, then per i the syrk and its
// gemms): the serial reference a distributed factorization must match
// bitwise, since every tile kernel sees bit-identical operands in the same
// sequence.
func FactorSerial(tiles [][]buffer.F64, p Params) error {
	for k := 0; k < p.Nb; k++ {
		if err := kern.Potrf(tiles[k][k], p.B); err != nil {
			return fmt.Errorf("cholesky: potrf(%d): %w", k, err)
		}
		for i := k + 1; i < p.Nb; i++ {
			kern.TrsmRightLowerTrans(tiles[k][k], tiles[i][k], p.B)
		}
		for i := k + 1; i < p.Nb; i++ {
			kern.SyrkSub(tiles[i][i], tiles[i][k], p.B)
			for j := k + 1; j < i; j++ {
				kern.GemmSubTransB(tiles[i][j], tiles[i][k], tiles[j][k], p.B)
			}
		}
	}
	return nil
}

// graph states the factorization's task graph; a failed potrf is recorded
// in g. Tile (i, j) lives on node (i+j) mod nodes.
func graph(g *workload.Graph, p Params) {
	b := int64(p.B)
	blockBytes := b * b * 8
	key := func(i, j int) workload.Region { return workload.Region{Arr: 'A', I: int32(i), J: int32(j)} }
	owner := func(i, j int) int { return (i + j) % g.Nodes() }
	var potrf, trsm, syrk, gemm rt.TaskFunc
	if g.Runs() {
		potrf = func(ctx *rt.Ctx) { g.Record(kern.Potrf(ctx.F64(0), p.B)) }
		trsm = func(ctx *rt.Ctx) { kern.TrsmRightLowerTrans(ctx.F64(0), ctx.F64(1), p.B) }
		syrk = func(ctx *rt.Ctx) { kern.SyrkSub(ctx.F64(1), ctx.F64(0), p.B) }
		gemm = func(ctx *rt.Ctx) { kern.GemmSubTransB(ctx.F64(2), ctx.F64(0), ctx.F64(1), p.B) }
	}
	for k := 0; k < p.Nb; k++ {
		g.Task("potrf", owner(k, k), b*b*b/3, blockBytes, potrf, workload.RWAcc(key(k, k), blockBytes))
		for i := k + 1; i < p.Nb; i++ {
			g.Task("trsm", owner(i, k), b*b*b, 2*blockBytes, trsm,
				workload.RAcc(key(k, k), blockBytes), workload.RWAcc(key(i, k), blockBytes))
		}
		for i := k + 1; i < p.Nb; i++ {
			g.Task("syrk", owner(i, i), b*b*b, 2*blockBytes, syrk,
				workload.RAcc(key(i, k), blockBytes), workload.RWAcc(key(i, i), blockBytes))
			for j := k + 1; j < i; j++ {
				g.Task("gemm", owner(i, j), 2*b*b*b, 3*blockBytes, gemm,
					workload.RAcc(key(i, k), blockBytes), workload.RAcc(key(j, k), blockBytes),
					workload.RWAcc(key(i, j), blockBytes))
			}
		}
	}
}

// data maps the factorization onto a copy of orig, which it only reads, and
// returns the check that holds the factors to orig.
func data(p Params, orig [][]buffer.F64) (func(workload.Region) buffer.Buffer, workload.Verifier) {
	tiles := clone2d(orig)
	return func(reg workload.Region) buffer.Buffer { return tiles[reg.I][reg.J] },
		func() error { return verify(tiles, orig, p) }
}

// verify reconstructs L·Lᵀ tile-wise from the factored tiles and compares it
// with the original matrix orig.
func verify(tiles, orig [][]buffer.F64, p Params) error {
	for i := 0; i < p.Nb; i++ {
		for j := 0; j <= i; j++ {
			rec := make([]float64, p.B*p.B)
			for k := 0; k <= j; k++ {
				kern.GemmSubTransB(rec, tiles[i][k], tiles[j][k], p.B)
			}
			for x := range rec {
				rec[x] = -rec[x]
			}
			want := orig[i][j]
			if d := kern.MaxAbsDiff(rec, want); !kern.Within(d, 1e-8*(1+kern.FrobNorm(want))) {
				return fmt.Errorf("cholesky: tile (%d,%d) residual %g", i, j, d)
			}
		}
	}
	return nil
}
