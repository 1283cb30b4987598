// Distributed tiled Cholesky on a communicator-scoped World: the first of
// the serial bench kernels ported to a real dist.World (ROADMAP item 3).
// The layout is the ScaLAPACK-style 2D block-cyclic grid: the communicator's
// size ranks form a Pr×Pc process grid, tile (i, j) lives on grid position
// (i mod Pr, j mod Pc), and the three data movements of the right-looking
// factorization become communicator broadcasts — the diagonal tile down its
// grid column after potrf, each panel tile along its grid row after trsm
// (for the syrk/gemm "A" operands) and down its grid column (for the gemm
// "B" operands). Row and column sub-communicators come from Comm.Split, so
// on a placed World every broadcast auto-selects its hierarchical shape —
// the flat-vs-hier lever the scale benchmarks price.
//
// Bitwise equality with FactorSerial holds by induction: every tile kernel
// runs exactly once, on its owner's runtime, gated by the same "A[i][j]"
// region chains the serial build uses, in the same per-tile order (gemms in
// ascending k, then trsm or syrk, then potrf for diagonal tiles), and every
// remote operand is a bitwise copy moved by broadcast. Replication and
// fault injection apply to the tile kernels exactly as in the serial build;
// broadcast plumbing is comm tasks, never replicated, never corrupted.
//
// This lives in package cholesky rather than package workload because
// workload is imported from here for the serial Workload value — the
// distributed builder needs the serial SPD seeding and kernels, so putting
// it beside them avoids an import cycle.
package cholesky

import (
	"errors"
	"fmt"

	"appfit/internal/bench/kern"
	"appfit/internal/buffer"
	"appfit/internal/dist"
	"appfit/internal/rt"
)

// ErrGrid reports a process grid that does not tile the communicator.
var ErrGrid = errors.New("cholesky: process grid does not match communicator size")

// DistConfig sizes a distributed build.
type DistConfig struct {
	// Nb and B are the tile grid and tile edge (defaults 8 and 8).
	Nb, B int
	// Pr × Pc is the process grid; both default to the most square
	// factorization of the communicator size (Pr ≤ Pc). When set, their
	// product must equal the communicator size.
	Pr, Pc int
}

func (cfg DistConfig) withDefaults(size int) DistConfig {
	if cfg.Nb <= 0 {
		cfg.Nb = 8
	}
	if cfg.B <= 0 {
		cfg.B = 8
	}
	if cfg.Pr <= 0 && cfg.Pc <= 0 {
		pr := 1
		for d := 1; d*d <= size; d++ {
			if size%d == 0 {
				pr = d
			}
		}
		cfg.Pr, cfg.Pc = pr, size/pr
	}
	return cfg
}

// Dist is a distributed factorization in flight: build with BuildDist, run
// the World to completion, then Verify against the serial reference.
type Dist struct {
	p    Params
	size int
	// Pr, Pc is the process grid actually used.
	Pr, Pc int
	// owned[i][j] (j ≤ i) is tile (i, j)'s working buffer, factorized in
	// place by its owner rank's tasks.
	owned [][]buffer.F64
	// msgs is the point-to-point message count the broadcasts move when
	// every sub-communicator takes its flat shape; hierarchical broadcasts
	// move the same count over different links.
	msgs int
}

// BuildDist submits the whole 2D block-cyclic factorization onto the
// communicator. Every rank derives the same SPD input tiles
// deterministically (SPD seeds per tile); tile kernels run on their owners'
// runtimes and remote operands arrive by row/column broadcasts on Split
// sub-communicators under per-tile tags. Returns ErrGrid when cfg names a
// grid whose Pr·Pc differs from the communicator size.
func BuildDist(c *dist.Comm, cfg DistConfig) (*Dist, error) {
	size := c.Size()
	cfg = cfg.withDefaults(size)
	if cfg.Pr*cfg.Pc != size {
		return nil, fmt.Errorf("cholesky: %d×%d grid on a %d-member communicator: %w",
			cfg.Pr, cfg.Pc, size, ErrGrid)
	}
	p := Params{Nb: cfg.Nb, B: cfg.B}
	d := &Dist{p: p, size: size, Pr: cfg.Pr, Pc: cfg.Pc, owned: SPD(p)}

	// Row and column sub-communicators: comm rank r sits at grid position
	// (r / Pc, r mod Pc); its row comm re-numbers by grid column, its column
	// comm by grid row.
	colors := make([]int, size)
	keys := make([]int, size)
	for r := 0; r < size; r++ {
		colors[r], keys[r] = r/cfg.Pc, r%cfg.Pc
	}
	rowSubs, err := c.Split(colors, keys)
	if err != nil {
		return nil, err
	}
	for r := 0; r < size; r++ {
		colors[r], keys[r] = r%cfg.Pc, r/cfg.Pc
	}
	colSubs, err := c.Split(colors, keys)
	if err != nil {
		return nil, err
	}

	owner := func(i, j int) int { return (i%cfg.Pr)*cfg.Pc + (j % cfg.Pc) }
	key := func(i, j int) string { return fmt.Sprintf("A[%d][%d]", i, j) }
	tagOf := func(i, j int) int { return i*cfg.Nb + j }
	// at returns rank r's buffer for tile (i, j): the working tile on its
	// owner, a lazily allocated staging buffer elsewhere — written by the
	// broadcast that delivers the tile, read by the kernels under the same
	// "A[i][j]" region the serial build uses.
	stages := make(map[[3]int]buffer.F64)
	at := func(r, i, j int) buffer.F64 {
		if r == owner(i, j) {
			return d.owned[i][j]
		}
		sk := [3]int{r, i, j}
		if b, ok := stages[sk]; ok {
			return b
		}
		b := buffer.NewF64(cfg.B * cfg.B)
		stages[sk] = b
		return b
	}
	// colBcast moves tile (i, j) from grid row rootRow down grid column
	// gcol; rowBcast moves it from grid column rootCol along grid row grow.
	// One-dimensional grids skip the corresponding direction entirely — the
	// tile is already local everywhere it is needed.
	colBcast := func(i, j, gcol, rootRow int) {
		if cfg.Pr == 1 {
			return
		}
		bufs := make([]buffer.Buffer, cfg.Pr)
		for gr := 0; gr < cfg.Pr; gr++ {
			bufs[gr] = at(gr*cfg.Pc+gcol, i, j)
		}
		colSubs[gcol].Broadcast(rootRow, tagOf(i, j), key(i, j), bufs)
		d.msgs += cfg.Pr - 1
	}
	rowBcast := func(i, j, grow, rootCol int) {
		if cfg.Pc == 1 {
			return
		}
		bufs := make([]buffer.Buffer, cfg.Pc)
		for gc := 0; gc < cfg.Pc; gc++ {
			bufs[gc] = at(grow*cfg.Pc+gc, i, j)
		}
		rowSubs[grow*cfg.Pc].Broadcast(rootCol, tagOf(i, j), key(i, j), bufs)
		d.msgs += cfg.Pc - 1
	}

	for k := 0; k < cfg.Nb; k++ {
		k := k
		okk := owner(k, k)
		c.Rank(okk).Runtime().Submit("potrf", func(ctx *rt.Ctx) {
			// A failed potrf (non-SPD input) cannot happen on the seeded
			// matrix; Verify would catch the divergence regardless.
			_ = kern.Potrf(ctx.F64(0), cfg.B)
		}, rt.Inout(key(k, k), at(okk, k, k)))
		// The factored diagonal tile feeds every trsm of panel k — all in
		// grid column k mod Pc.
		colBcast(k, k, k%cfg.Pc, k%cfg.Pr)
		for i := k + 1; i < cfg.Nb; i++ {
			oik := owner(i, k)
			c.Rank(oik).Runtime().Submit("trsm", func(ctx *rt.Ctx) {
				kern.TrsmRightLowerTrans(ctx.F64(0), ctx.F64(1), cfg.B)
			}, rt.In(key(k, k), at(oik, k, k)), rt.Inout(key(i, k), at(oik, i, k)))
			// Panel tile (i, k) feeds the trailing update: along grid row
			// i mod Pr as the syrk/gemm "A" operand, then down grid column
			// i mod Pc as the gemm "B" operand — rooted at (i mod Pr,
			// i mod Pc), which the row broadcast just reached, so the column
			// hop is dataflow-gated on it through region A[i][k].
			rowBcast(i, k, i%cfg.Pr, k%cfg.Pc)
			if i < cfg.Nb-1 {
				colBcast(i, k, i%cfg.Pc, i%cfg.Pr)
			}
		}
		for i := k + 1; i < cfg.Nb; i++ {
			i := i
			oii := owner(i, i)
			c.Rank(oii).Runtime().Submit("syrk", func(ctx *rt.Ctx) {
				kern.SyrkSub(ctx.F64(1), ctx.F64(0), cfg.B)
			}, rt.In(key(i, k), at(oii, i, k)), rt.Inout(key(i, i), at(oii, i, i)))
			for j := k + 1; j < i; j++ {
				oij := owner(i, j)
				c.Rank(oij).Runtime().Submit("gemm", func(ctx *rt.Ctx) {
					kern.GemmSubTransB(ctx.F64(2), ctx.F64(0), ctx.F64(1), cfg.B)
				}, rt.In(key(i, k), at(oij, i, k)), rt.In(key(j, k), at(oij, j, k)),
					rt.Inout(key(i, j), at(oij, i, j)))
			}
		}
	}
	return d, nil
}

// ErrVerify is the sentinel wrapped when the distributed factorization
// does not match the serial reference bitwise.
var ErrVerify = errors.New("cholesky: verification failed")

// Verify re-derives the serial reference (SPD + FactorSerial) and compares
// every working tile bitwise. Call after the World has shut down.
func (d *Dist) Verify() error {
	ref := SPD(d.p)
	if err := FactorSerial(ref, d.p); err != nil {
		return err
	}
	for i := 0; i < d.p.Nb; i++ {
		for j := 0; j <= i; j++ {
			if !d.owned[i][j].EqualTo(ref[i][j]) {
				return fmt.Errorf("cholesky: distributed tile (%d,%d) diverges from the serial factorization: %w", i, j, ErrVerify)
			}
		}
	}
	return nil
}
