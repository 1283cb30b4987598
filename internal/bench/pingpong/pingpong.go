// Package pingpong implements the Pingpong benchmark (Table I: "computation
// and communication between pairs of processes", array 65536 doubles, block
// 1024): ranks are paired; every iteration each rank combines its own block
// state with its partner's previous state — a compute step fused with a
// ping-pong exchange. Under distribution each rank lives on its own node, so
// every iteration pays one cross-node transfer per block in each direction.
package pingpong

import (
	"fmt"

	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/rt"
)

// Params sizes the workload.
type Params struct {
	// Ranks is the number of processes (must be even).
	Ranks int
	// N is the doubles per rank; B the block size.
	N, B int
	// Iters is the exchange count.
	Iters int
}

// ParamsFor returns parameters at a scale.
func ParamsFor(s workload.Scale) Params {
	switch s {
	case workload.Tiny:
		return Params{Ranks: 4, N: 256, B: 64, Iters: 3}
	case workload.Medium:
		// 128 ranks cover the largest simulated machine (64 nodes) with
		// two ranks per node; 20480 tasks sit in the paper's fine-task
		// band.
		return Params{Ranks: 128, N: 8192, B: 1024, Iters: 20}
	default:
		return Params{Ranks: 16, N: 4096, B: 1024, Iters: 10}
	}
}

// Tasks returns the task count.
func (p Params) Tasks() int { return p.Ranks * (p.N / p.B) * p.Iters }

// W is the pingpong workload.
type W struct{}

// New returns the workload.
func New() workload.Workload { return W{} }

// Name implements workload.Workload.
func (W) Name() string { return "pingpong" }

// Distributed implements workload.Workload.
func (W) Distributed() bool { return true }

// Description implements workload.Workload.
func (W) Description() string {
	return "Computation and communication between pairs of processes"
}

// PaperSize implements workload.Workload.
func (W) PaperSize() string { return "Array size 65536 doubles, block size 1024" }

// InputBytes implements workload.Workload.
func (W) InputBytes(s workload.Scale) int64 {
	p := ParamsFor(s)
	return int64(p.Ranks) * int64(p.N) * 8
}

func initial(rank int) float64 { return float64(rank % 2) }

// Expected returns each rank's uniform element value after iters exchanges:
// x' = (x + y)/2 + 1 with y the partner's value. Both converge to the pair
// mean immediately, then advance by 1 per iteration.
func Expected(rank, iters int) float64 {
	x, y := initial(rank), initial(rank^1)
	for t := 0; t < iters; t++ {
		x, y = (x+y)/2+1, (y+x)/2+1
	}
	return x
}

// Combine is the per-block task body: mine' = (mine + theirs)/2 + 1.
func Combine(mine, theirs []float64) {
	for i := range mine {
		mine[i] = (mine[i]+theirs[i])/2 + 1
	}
}

// BuildRT implements workload.Workload.
func (W) BuildRT(r *rt.Runtime, s workload.Scale) workload.Verifier {
	p := ParamsFor(s)
	nb := p.N / p.B
	// bufs[rank][block]; double-buffered per iteration parity so both
	// members of a pair read the partner's *previous* state.
	mk := func(val float64) [][]buffer.F64 {
		out := make([][]buffer.F64, p.Ranks)
		for rk := range out {
			out[rk] = make([]buffer.F64, nb)
			for blk := range out[rk] {
				out[rk][blk] = buffer.NewF64(p.B)
				for i := range out[rk][blk] {
					out[rk][blk][i] = val
				}
			}
		}
		return out
	}
	cur := mk(0)
	nxt := mk(0)
	for rk := 0; rk < p.Ranks; rk++ {
		for blk := 0; blk < nb; blk++ {
			for i := range cur[rk][blk] {
				cur[rk][blk][i] = initial(rk)
			}
		}
	}
	key := func(gen, rank, blk int) string { return fmt.Sprintf("g%d/r%d/b%d", gen, rank, blk) }
	bufs := [2][][]buffer.F64{cur, nxt}
	for it := 0; it < p.Iters; it++ {
		src, dst := bufs[it%2], bufs[(it+1)%2]
		for rk := 0; rk < p.Ranks; rk++ {
			partner := rk ^ 1
			for blk := 0; blk < nb; blk++ {
				r.Submit("pingpong", func(ctx *rt.Ctx) {
					mine, theirs, out := ctx.F64(0), ctx.F64(1), ctx.F64(2)
					copy(out, mine)
					Combine(out, theirs)
				},
					rt.In(key(it%2, rk, blk), src[rk][blk]),
					rt.In(key(it%2, partner, blk), src[partner][blk]),
					rt.Out(key((it+1)%2, rk, blk), dst[rk][blk]))
			}
		}
	}
	final := bufs[p.Iters%2]
	return func() error {
		for rk := 0; rk < p.Ranks; rk++ {
			want := Expected(rk, p.Iters)
			for blk := 0; blk < nb; blk++ {
				for i, v := range final[rk][blk] {
					if v != want {
						return fmt.Errorf("pingpong: rank %d block %d elem %d = %g, want %g",
							rk, blk, i, v, want)
					}
				}
			}
		}
		return nil
	}
}

// BuildJob implements workload.Workload. Each rank maps to node rank%nodes,
// so paired ranks land on different nodes whenever nodes ≥ 2.
func (W) BuildJob(s workload.Scale, nodes int, cm workload.CostModel) cluster.Job {
	p := ParamsFor(s)
	ranks := p.Ranks
	nb := p.N / p.B
	bb := int64(p.B) * 8
	jb := workload.NewJobBuilder("pingpong", p.Iters*ranks*nb, int64(ranks)*int64(p.N)*8, cm)
	key := func(gen, r, b int) workload.Region { return workload.Region{Arr: rune(gen), I: int32(r), J: int32(b)} }
	for it := 0; it < p.Iters; it++ {
		for rk := 0; rk < ranks; rk++ {
			partner := rk ^ 1
			for blk := 0; blk < nb; blk++ {
				jb.Task("pingpong", rk%nodes, 2*int64(p.B), 3*bb,
					workload.RAcc(key(it%2, rk, blk), bb),
					workload.RAcc(key(it%2, partner, blk), bb),
					workload.WAcc(key((it+1)%2, rk, blk), bb))
			}
		}
	}
	return jb.Job()
}
