// Package stream implements the McCalpin STREAM benchmark as a task-parallel
// workload (Table I: "linear operations among arrays", array 2048×2048
// doubles, block 32768). The paper uses it to stress-test replication
// overheads with memory-bound tasks (§V-A2). Each iteration runs the four
// canonical kernels — copy, scale, add, triad — as one task per array block.
package stream

import (
	"fmt"

	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/rt"
)

const scalar = 3.0

// Params sizes the workload.
type Params struct {
	// N is the total array length (doubles per array).
	N int
	// B is the block length.
	B int
	// Iters is the number of four-kernel iterations.
	Iters int
}

// ParamsFor returns the parameters at a scale. Small yields ~3.2K tasks,
// Medium ~25.6K (the paper's "25K-48K finer tasks" band).
func ParamsFor(s workload.Scale) Params {
	switch s {
	case workload.Tiny:
		return Params{N: 256, B: 64, Iters: 2}
	case workload.Medium:
		return Params{N: 1 << 20, B: 32768, Iters: 200}
	default:
		return Params{N: 1 << 15, B: 2048, Iters: 50}
	}
}

// Tasks returns the task count at the given parameters.
func (p Params) Tasks() int { return p.N / p.B * 4 * p.Iters }

// W is the stream workload.
type W struct{}

// New returns the workload.
func New() workload.Workload { return W{} }

// Name implements workload.Workload.
func (W) Name() string { return "stream" }

// Distributed implements workload.Workload.
func (W) Distributed() bool { return false }

// Description implements workload.Workload.
func (W) Description() string { return "Linear operations among arrays" }

// PaperSize implements workload.Workload.
func (W) PaperSize() string { return "Array size 2048x2048 (doubles), block size 32768" }

// InputBytes implements workload.Workload: three arrays of N doubles.
func (W) InputBytes(s workload.Scale) int64 {
	p := ParamsFor(s)
	return 3 * int64(p.N) * 8
}

// expected returns the analytically-known element values after iters
// iterations (every element of each array stays uniform).
func expected(iters int) (a, b, c float64) {
	a, b, c = 1, 2, 0
	for i := 0; i < iters; i++ {
		c = a          // copy
		b = scalar * c // scale
		c = a + b      // add
		a = b + scalar*c
	}
	return a, b, c
}

// The four kernels' task bodies; the last argument is the one written. The
// inputs are sliced to the output's length first, so the loops run without
// bounds checks.
func copyBody(ctx *rt.Ctx) { copy(ctx.F64(1), ctx.F64(0)) }

func scaleBody(ctx *rt.Ctx) {
	dst := ctx.F64(1)
	src := ctx.F64(0)[:len(dst)]
	for j := range dst {
		dst[j] = scalar * src[j]
	}
}

func addBody(ctx *rt.Ctx) {
	dst := ctx.F64(2)
	x, y := ctx.F64(0)[:len(dst)], ctx.F64(1)[:len(dst)]
	for j := range dst {
		dst[j] = x[j] + y[j]
	}
}

func triadBody(ctx *rt.Ctx) {
	dst := ctx.F64(2)
	x, y := ctx.F64(0)[:len(dst)], ctx.F64(1)[:len(dst)]
	for j := range dst {
		dst[j] = x[j] + scalar*y[j]
	}
}

// graph states the iterations' task graph: per iteration copy, scale, add
// and triad over every block. Blocks are spread over nodes block-cyclically
// so the same graph serves single-node (Figure 5) and multi-node sweeps.
func graph(g *workload.Graph, p Params) {
	nb := p.N / p.B
	bb := int64(p.B) * 8
	key := func(arr rune, i int) workload.Region { return workload.Region{Arr: arr, I: int32(i)} }
	for it := 0; it < p.Iters; it++ {
		for i := 0; i < nb; i++ {
			g.Task("copy", i%g.Nodes(), 0, 2*bb, copyBody,
				workload.RAcc(key('a', i), bb), workload.WAcc(key('c', i), bb))
		}
		for i := 0; i < nb; i++ {
			g.Task("scale", i%g.Nodes(), int64(p.B), 2*bb, scaleBody,
				workload.RAcc(key('c', i), bb), workload.WAcc(key('b', i), bb))
		}
		for i := 0; i < nb; i++ {
			g.Task("add", i%g.Nodes(), int64(p.B), 3*bb, addBody,
				workload.RAcc(key('a', i), bb), workload.RAcc(key('b', i), bb), workload.WAcc(key('c', i), bb))
		}
		for i := 0; i < nb; i++ {
			g.Task("triad", i%g.Nodes(), 2*int64(p.B), 3*bb, triadBody,
				workload.RAcc(key('b', i), bb), workload.RAcc(key('c', i), bb), workload.WAcc(key('a', i), bb))
		}
	}
}

// BuildRT implements workload.Workload.
func (W) BuildRT(r *rt.Runtime, s workload.Scale) workload.Verifier {
	p := ParamsFor(s)
	nb := p.N / p.B
	arrs := [3][]buffer.F64{make([]buffer.F64, nb), make([]buffer.F64, nb), make([]buffer.F64, nb)} // a, b, c
	as, bs, cs := arrs[0], arrs[1], arrs[2]
	for i := 0; i < nb; i++ {
		as[i] = buffer.NewF64(p.B)
		bs[i] = buffer.NewF64(p.B)
		cs[i] = buffer.NewF64(p.B)
		for j := 0; j < p.B; j++ {
			as[i][j], bs[i][j], cs[i][j] = 1, 2, 0
		}
	}
	graph(workload.NewRTGraph(r, func(reg workload.Region) buffer.Buffer { return arrs[reg.Arr-'a'][reg.I] }), p)
	return func() error {
		wa, wb, wc := expected(p.Iters)
		for i := 0; i < nb; i++ {
			for j := 0; j < p.B; j++ {
				if as[i][j] != wa || bs[i][j] != wb || cs[i][j] != wc {
					return fmt.Errorf("stream: block %d elem %d = (%g,%g,%g), want (%g,%g,%g)",
						i, j, as[i][j], bs[i][j], cs[i][j], wa, wb, wc)
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
