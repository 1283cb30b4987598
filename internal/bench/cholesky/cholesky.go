// Package cholesky implements the tiled right-looking Cholesky factorization
// benchmark (Table I: matrix 16384×16384 doubles, block 512×512): the
// classic OmpSs dataflow showcase with potrf/trsm/syrk/gemm tasks whose
// dependencies the runtime infers from tile accesses. The paper lists it
// among the coarse-grained, low-task-count benchmarks that incur more
// replication under App_FIT (§V-A1).
package cholesky

import (
	"fmt"

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/rt"
	"appfit/internal/xrand"
)

// Params sizes the workload: the matrix is (Nb·B)² in Nb×Nb tiles of B×B.
type Params struct {
	Nb, B int
}

// ParamsFor returns parameters at a scale.
func ParamsFor(s workload.Scale) Params {
	switch s {
	case workload.Tiny:
		return Params{Nb: 4, B: 8}
	case workload.Medium:
		return Params{Nb: 32, B: 64}
	default:
		return Params{Nb: 12, B: 32}
	}
}

// Tasks returns the kernel task count: potrf Nb, trsm Nb(Nb-1)/2, syrk
// Nb(Nb-1)/2, gemm Nb(Nb-1)(Nb-2)/6.
func (p Params) Tasks() int {
	n := p.Nb
	return n + n*(n-1)/2 + n*(n-1)/2 + n*(n-1)*(n-2)/6
}

// W is the Cholesky workload.
type W struct{}

// New returns the workload.
func New() workload.Workload { return W{} }

// Name implements workload.Workload.
func (W) Name() string { return "cholesky" }

// Distributed implements workload.Workload.
func (W) Distributed() bool { return false }

// Description implements workload.Workload.
func (W) Description() string { return "Cholesky factorization" }

// PaperSize implements workload.Workload.
func (W) PaperSize() string { return "Matrix size 16384x16384 doubles and block size 512x512" }

// InputBytes implements workload.Workload.
func (W) InputBytes(s workload.Scale) int64 {
	p := ParamsFor(s)
	n := int64(p.Nb) * int64(p.B)
	return n * n * 8
}

// buildSPD fills the lower-triangular tile array of an SPD matrix: a random
// symmetric matrix plus a strong diagonal. Only tiles with i >= j are
// stored (the factorization touches nothing else).
func buildSPD(p Params) [][]buffer.F64 {
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

// clone2d deep-copies the tile array (for verification).
func clone2d(tiles [][]buffer.F64) [][]buffer.F64 {
	out := make([][]buffer.F64, len(tiles))
	for i := range tiles {
		out[i] = make([]buffer.F64, len(tiles[i]))
		for j := range tiles[i] {
			out[i][j] = tiles[i][j].Clone().(buffer.F64)
		}
	}
	return out
}

// SPD returns the deterministic lower-triangular tile array the benchmark
// factorizes: tiles[i][j] for j <= i, seeded only by (i, j), so every caller
// — the serial reference and every rank of a distributed build — derives
// bitwise-identical inputs without communicating.
func SPD(p Params) [][]buffer.F64 { return buildSPD(p) }

// CloneTiles deep-copies a tile array.
func CloneTiles(tiles [][]buffer.F64) [][]buffer.F64 { return clone2d(tiles) }

// FactorSerial runs the tiled factorization in place in the exact task order
// BuildRT submits (per k: potrf, trsms ascending i, then per i the syrk and
// its gemms): the serial reference a distributed factorization must match
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

// BuildRT implements workload.Workload.
func (W) BuildRT(r *rt.Runtime, s workload.Scale) workload.Verifier {
	p := ParamsFor(s)
	tiles := buildSPD(p)
	orig := clone2d(tiles)
	key := func(i, j int) string { return fmt.Sprintf("A[%d][%d]", i, j) }
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for k := 0; k < p.Nb; k++ {
		k := k
		r.Submit("potrf", func(ctx *rt.Ctx) {
			if err := kern.Potrf(ctx.F64(0), p.B); err != nil {
				fail(err)
			}
		}, rt.Inout(key(k, k), tiles[k][k]))
		for i := k + 1; i < p.Nb; i++ {
			i := i
			r.Submit("trsm", func(ctx *rt.Ctx) {
				kern.TrsmRightLowerTrans(ctx.F64(0), ctx.F64(1), p.B)
			}, rt.In(key(k, k), tiles[k][k]), rt.Inout(key(i, k), tiles[i][k]))
		}
		for i := k + 1; i < p.Nb; i++ {
			i := i
			r.Submit("syrk", func(ctx *rt.Ctx) {
				kern.SyrkSub(ctx.F64(1), ctx.F64(0), p.B)
			}, rt.In(key(i, k), tiles[i][k]), rt.Inout(key(i, i), tiles[i][i]))
			for j := k + 1; j < i; j++ {
				j := j
				r.Submit("gemm", func(ctx *rt.Ctx) {
					kern.GemmSubTransB(ctx.F64(2), ctx.F64(0), ctx.F64(1), p.B)
				}, rt.In(key(i, k), tiles[i][k]), rt.In(key(j, k), tiles[j][k]),
					rt.Inout(key(i, j), tiles[i][j]))
			}
		}
	}
	return func() error {
		if firstErr != nil {
			return firstErr
		}
		// Reconstruct L·Lᵀ tile-wise and compare with the original.
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
				if d := kern.MaxAbsDiff(rec, want); d > 1e-8*(1+kern.FrobNorm(want)) {
					return fmt.Errorf("cholesky: tile (%d,%d) residual %g", i, j, d)
				}
			}
		}
		return nil
	}
}

// BuildJob implements workload.Workload.
func (W) BuildJob(s workload.Scale, nodes int, cm workload.CostModel) cluster.Job {
	p := ParamsFor(s)
	b := int64(p.B)
	blockBytes := b * b * 8
	n := int64(p.Nb) * b
	jb := workload.NewJobBuilder("cholesky", p.Nb+p.Nb*(p.Nb-1)+p.Nb*(p.Nb-1)*(p.Nb-2)/6, n*n*8, cm)
	key := func(i, j int) workload.Region { return workload.Region{Arr: 'A', I: int32(i), J: int32(j)} }
	owner := func(i, j int) int { return (i + j) % nodes }
	potrfFlops := b * b * b / 3
	trsmFlops := b * b * b
	syrkFlops := b * b * b
	gemmFlops := 2 * b * b * b
	for k := 0; k < p.Nb; k++ {
		jb.Task("potrf", owner(k, k), potrfFlops, blockBytes,
			workload.RWAcc(key(k, k), blockBytes))
		for i := k + 1; i < p.Nb; i++ {
			jb.Task("trsm", owner(i, k), trsmFlops, 2*blockBytes,
				workload.RAcc(key(k, k), blockBytes), workload.RWAcc(key(i, k), blockBytes))
		}
		for i := k + 1; i < p.Nb; i++ {
			jb.Task("syrk", owner(i, i), syrkFlops, 2*blockBytes,
				workload.RAcc(key(i, k), blockBytes), workload.RWAcc(key(i, i), blockBytes))
			for j := k + 1; j < i; j++ {
				jb.Task("gemm", owner(i, j), gemmFlops, 3*blockBytes,
					workload.RAcc(key(i, k), blockBytes), workload.RAcc(key(j, k), blockBytes),
					workload.RWAcc(key(i, j), blockBytes))
			}
		}
	}
	return jb.Job()
}
