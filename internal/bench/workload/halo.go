package workload

import (
	"errors"
	"fmt"

	"appfit/internal/buffer"
	"appfit/internal/dist"
	"appfit/internal/rt"
)

// ErrOddHalo reports a communicator whose size cannot be paired up.
var ErrOddHalo = errors.New("workload: halo exchange needs an even number of members")

// HaloConfig sizes a halo-exchange build.
type HaloConfig struct {
	// Iters is the number of relax+exchange iterations (default 8).
	Iters int
	// N is the block length in float64 elements (default 1024).
	N int
}

func (cfg HaloConfig) withDefaults() HaloConfig {
	if cfg.Iters <= 0 {
		cfg.Iters = 8
	}
	if cfg.N <= 0 {
		cfg.N = 1024
	}
	return cfg
}

// Halo is the reusable pair-halo-exchange pattern: the members of a
// communicator pair up (comm rank xor 1) and every iteration each member
// relaxes its local block toward the partner state received last iteration
// — an ordinary compute task the selector may replicate and the injector
// may corrupt — then ships its block to the partner and receives the
// partner's for the next iteration through dependency-gated comm tasks.
// The exchange overlaps with compute under plain dataflow rules and its
// messages are never replicated.
type Halo struct {
	cfg  HaloConfig
	size int
	// Local and Remote are the per-member blocks, indexed by comm rank;
	// inspect them after the World has shut down.
	Local  []buffer.F64
	Remote []buffer.F64
}

// BuildHalo submits the full pattern onto the communicator and returns the
// handle to verify once the World is drained. Member blocks start uniform
// at float64(comm rank); iteration it exchanges under tag it.
func BuildHalo(c *dist.Comm, cfg HaloConfig) (*Halo, error) {
	size := c.Size()
	if size%2 != 0 {
		return nil, fmt.Errorf("workload: %d members: %w", size, ErrOddHalo)
	}
	cfg = cfg.withDefaults()
	h := &Halo{
		cfg:    cfg,
		size:   size,
		Local:  make([]buffer.F64, size),
		Remote: make([]buffer.F64, size),
	}
	for rk := 0; rk < size; rk++ {
		h.Local[rk] = buffer.NewF64(cfg.N)
		h.Remote[rk] = buffer.NewF64(cfg.N)
		for i := range h.Local[rk] {
			h.Local[rk][i] = float64(rk)
		}
	}
	for it := 0; it < cfg.Iters; it++ {
		for rk := 0; rk < size; rk++ {
			partner := rk ^ 1
			c.Rank(rk).Runtime().Submit("relax", func(ctx *rt.Ctx) {
				mine, theirs := ctx.F64(0), ctx.F64(1)
				for i := range mine {
					mine[i] = (mine[i]+theirs[i])/2 + 1
				}
			}, rt.Inout("halo:local", h.Local[rk]), rt.In("halo:remote", h.Remote[rk]))
			c.Rank(rk).Send(partner, it, "halo:local", h.Local[rk])
			c.Rank(rk).Recv(partner, it, "halo:remote", h.Remote[rk])
		}
	}
	return h, nil
}

// Reference returns the serial evolution of the per-member block value
// (blocks stay uniform, so one float64 per member suffices).
func (h *Halo) Reference() []float64 {
	loc := make([]float64, h.size)
	rem := make([]float64, h.size)
	for rk := range loc {
		loc[rk] = float64(rk)
	}
	for it := 0; it < h.cfg.Iters; it++ {
		next := make([]float64, h.size)
		for rk := range loc {
			next[rk] = (loc[rk]+rem[rk])/2 + 1
		}
		for rk := range rem {
			rem[rk] = next[rk^1]
		}
		loc = next
	}
	return loc
}

// ErrDiverged is the sentinel wrapped by every Verify failure: the
// distributed run no longer matches the serial reference bitwise.
var ErrDiverged = errors.New("workload: diverged from serial reference")

// Verify compares every element of every final local block against the
// serial reference bitwise. Call after the World has shut down.
func (h *Halo) Verify() error {
	want := h.Reference()
	for rk := 0; rk < h.size; rk++ {
		for i, v := range h.Local[rk] {
			if v != want[rk] {
				return fmt.Errorf("workload: halo member %d element %d = %v, want %v: %w",
					rk, i, v, want[rk], ErrDiverged)
			}
		}
	}
	return nil
}
