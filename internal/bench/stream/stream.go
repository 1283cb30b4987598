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

// BuildRT implements workload.Workload.
func (W) BuildRT(r *rt.Runtime, s workload.Scale) workload.Verifier {
	p := ParamsFor(s)
	nb := p.N / p.B
	as := make([]buffer.F64, nb)
	bs := make([]buffer.F64, nb)
	cs := make([]buffer.F64, nb)
	for i := 0; i < nb; i++ {
		as[i] = buffer.NewF64(p.B)
		bs[i] = buffer.NewF64(p.B)
		cs[i] = buffer.NewF64(p.B)
		for j := 0; j < p.B; j++ {
			as[i][j], bs[i][j], cs[i][j] = 1, 2, 0
		}
	}
	key := func(arr string, i int) string { return fmt.Sprintf("%s[%d]", arr, i) }
	for it := 0; it < p.Iters; it++ {
		for i := 0; i < nb; i++ {
			i := i
			r.Submit("copy", func(ctx *rt.Ctx) {
				src, dst := ctx.F64(0), ctx.F64(1)
				copy(dst, src)
			}, rt.In(key("a", i), as[i]), rt.Out(key("c", i), cs[i]))
		}
		for i := 0; i < nb; i++ {
			i := i
			r.Submit("scale", func(ctx *rt.Ctx) {
				src, dst := ctx.F64(0), ctx.F64(1)
				for j := range dst {
					dst[j] = scalar * src[j]
				}
			}, rt.In(key("c", i), cs[i]), rt.Out(key("b", i), bs[i]))
		}
		for i := 0; i < nb; i++ {
			i := i
			r.Submit("add", func(ctx *rt.Ctx) {
				x, y, dst := ctx.F64(0), ctx.F64(1), ctx.F64(2)
				for j := range dst {
					dst[j] = x[j] + y[j]
				}
			}, rt.In(key("a", i), as[i]), rt.In(key("b", i), bs[i]), rt.Out(key("c", i), cs[i]))
		}
		for i := 0; i < nb; i++ {
			i := i
			r.Submit("triad", func(ctx *rt.Ctx) {
				x, y, dst := ctx.F64(0), ctx.F64(1), ctx.F64(2)
				for j := range dst {
					dst[j] = x[j] + scalar*y[j]
				}
			}, rt.In(key("b", i), bs[i]), rt.In(key("c", i), cs[i]), rt.Out(key("a", i), as[i]))
		}
	}
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

// BuildJob implements workload.Workload. Blocks are spread over nodes
// block-cyclically so the same builder serves single-node (Figure 5) and
// multi-node sweeps.
func (W) BuildJob(s workload.Scale, nodes int, cm workload.CostModel) cluster.Job {
	p := ParamsFor(s)
	nb := p.N / p.B
	bb := int64(p.B) * 8
	jb := workload.NewJobBuilder("stream", 4*nb*p.Iters, 3*int64(p.N)*8, cm)
	key := func(arr rune, i int) workload.Region { return workload.Region{Arr: arr, I: int32(i)} }
	node := func(i int) int { return i % nodes }
	for it := 0; it < p.Iters; it++ {
		for i := 0; i < nb; i++ {
			jb.Task("copy", node(i), 0, 2*bb,
				workload.RAcc(key('a', i), bb), workload.WAcc(key('c', i), bb))
		}
		for i := 0; i < nb; i++ {
			jb.Task("scale", node(i), int64(p.B), 2*bb,
				workload.RAcc(key('c', i), bb), workload.WAcc(key('b', i), bb))
		}
		for i := 0; i < nb; i++ {
			jb.Task("add", node(i), int64(p.B), 3*bb,
				workload.RAcc(key('a', i), bb), workload.RAcc(key('b', i), bb), workload.WAcc(key('c', i), bb))
		}
		for i := 0; i < nb; i++ {
			jb.Task("triad", node(i), 2*int64(p.B), 3*bb,
				workload.RAcc(key('b', i), bb), workload.RAcc(key('c', i), bb), workload.WAcc(key('a', i), bb))
		}
	}
	return jb.Job()
}
