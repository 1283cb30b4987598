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
	"appfit/internal/rt"
)

const scalar = 3.0

// params sizes the workload.
type params struct {
	// N is the total array length (doubles per array).
	N int
	// B is the block length.
	B int
	// Iters is the number of four-kernel iterations.
	Iters int
}

// sizes holds the parameters per scale. Small yields ~3.2K tasks, Medium
// ~25.6K (the paper's "25K-48K finer tasks" band).
var sizes = [...]params{
	workload.Tiny:   {N: 256, B: 64, Iters: 2},
	workload.Small:  {N: 1 << 15, B: 2048, Iters: 50},
	workload.Medium: {N: 1 << 20, B: 32768, Iters: 200},
}

// tasks returns the task count at the given parameters.
func (p params) tasks() int { return p.N / p.B * 4 * p.Iters }

// Workload is the stream benchmark.
var Workload = workload.New(workload.Spec{
	Name:        "stream",
	Description: "Linear operations among arrays",
	PaperSize:   "Array size 2048x2048 (doubles), block size 32768",
	// Three arrays of N doubles.
	InputBytes: func(s workload.Scale) int64 { return 3 * int64(sizes[s].N) * 8 },
	Tasks:      func(s workload.Scale) int { return sizes[s].tasks() },
	Graph:      func(g *workload.Graph, s workload.Scale) { graph(g, sizes[s]) },
	Data:       data,
})

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
func graph(g *workload.Graph, p params) {
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

// data allocates the three arrays, a = 1, b = 2 and c = 0 everywhere.
func data(s workload.Scale) (func(workload.Region) buffer.Buffer, workload.Verifier) {
	p := sizes[s]
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
	return func(reg workload.Region) buffer.Buffer { return arrs[reg.Arr-'a'][reg.I] }, func() error {
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
