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

// exchange is the task body: out = Combine(mine, theirs), the partner's
// previous state read from a buffer it does not write this iteration.
func exchange(ctx *rt.Ctx) {
	mine, theirs, out := ctx.F64(0), ctx.F64(1), ctx.F64(2)
	copy(out, mine)
	Combine(out, theirs)
}

// graph states the exchange's task graph. Every block is double-buffered
// by iteration parity (generation), so both members of a pair read the
// partner's previous state. Each rank maps to node rank mod nodes, so paired
// ranks land on different nodes whenever nodes ≥ 2.
func graph(g *workload.Graph, p Params) {
	bb := int64(p.B) * 8
	key := func(gen, rank, blk int) workload.Region {
		return workload.Region{Arr: 'g', I: int32(gen), J: int32(rank), K: int32(blk)}
	}
	for it := 0; it < p.Iters; it++ {
		for rk := 0; rk < p.Ranks; rk++ {
			partner := rk ^ 1
			for blk := 0; blk < p.N/p.B; blk++ {
				g.Task("pingpong", rk%g.Nodes(), 2*int64(p.B), 3*bb, exchange,
					workload.RAcc(key(it%2, rk, blk), bb),
					workload.RAcc(key(it%2, partner, blk), bb),
					workload.WAcc(key((it+1)%2, rk, blk), bb))
			}
		}
	}
}

// BuildRT implements workload.Workload.
func (W) BuildRT(r *rt.Runtime, s workload.Scale) workload.Verifier {
	p := ParamsFor(s)
	nb := p.N / p.B
	// bufs[gen][rank][block], generation 0 holding the initial state.
	var bufs [2][][]buffer.F64
	for gen := range bufs {
		bufs[gen] = make([][]buffer.F64, p.Ranks)
		for rk := range bufs[gen] {
			bufs[gen][rk] = make([]buffer.F64, nb)
			for blk := range bufs[gen][rk] {
				b := buffer.NewF64(p.B)
				if gen == 0 {
					for i := range b {
						b[i] = initial(rk)
					}
				}
				bufs[gen][rk][blk] = b
			}
		}
	}
	graph(workload.NewRTGraph(r, func(reg workload.Region) buffer.Buffer { return bufs[reg.I][reg.J][reg.K] }), p)
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

// BuildJob implements workload.Workload.
func (w W) BuildJob(s workload.Scale, nodes int, cm workload.CostModel) cluster.Job {
	p := ParamsFor(s)
	g := workload.NewJobGraph(w.Name(), p.Tasks(), nodes, cm)
	graph(g, p)
	return g.Job()
}
