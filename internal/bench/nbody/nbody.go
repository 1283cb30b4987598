// Package nbody implements the N-body benchmark (Table I: interaction
// between N bodies, 65536 bodies, block size depending on node count): a
// blocked all-pairs gravitational simulation with softening. Per timestep,
// every block pair (i, j) produces one heavy force task computing partial
// accelerations into a private buffer; a light reduction task per block sums
// the partials, and an integration task advances the block. Keeping the
// force tasks independent (instead of chaining them through an inout
// accumulator) is what gives the workload the Nb² parallelism the paper's
// distributed scalability experiment rides on.
package nbody

import (
	"fmt"
	"math"

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/rt"
	"appfit/internal/xrand"
)

const (
	dt  = 0.01
	eps = 1e-3
)

// Params sizes the workload: N bodies in Nb = N/B blocks.
type Params struct {
	N, B  int
	Steps int
}

// Nb returns the block count.
func (p Params) nb() int { return p.N / p.B }

// sizes holds the parameters per scale. Medium's 32² = 1024 force tasks per
// step keep 1024 cores busy (the paper's largest machine).
var sizes = [...]Params{
	workload.Tiny:   {N: 64, B: 16, Steps: 2},
	workload.Small:  {N: 2048, B: 256, Steps: 4},
	workload.Medium: {N: 16384, B: 512, Steps: 5},
}

// Workload is the N-body benchmark.
var Workload = workload.New(workload.Spec{
	Name:        "nbody",
	Description: "Interaction between N bodies",
	PaperSize:   "Array size 65536 bodies, block size depends on #nodes",
	Distributed: true,
	// Positions + velocities, 3 doubles each.
	InputBytes: func(s workload.Scale) int64 { return int64(sizes[s].N) * 6 * 8 },
	Tasks: func(s workload.Scale) int {
		p := sizes[s]
		return p.Steps * (p.nb()*p.nb() + 2*p.nb())
	},
	Graph: func(g *workload.Graph, s workload.Scale) { graph(g, sizes[s]) },
	Data:  data,
})

// InitBlock fills the position block deterministically on a perturbed
// lattice; velocities start at zero.
func InitBlock(pos []float64, block, b int) {
	r := xrand.New(xrand.Combine(0xB0D7, uint64(block)))
	for k := 0; k < b; k++ {
		id := block*b + k
		pos[3*k+0] = float64(id%31) + 0.01*r.NormFloat64()
		pos[3*k+1] = float64((id/31)%31) + 0.01*r.NormFloat64()
		pos[3*k+2] = float64(id/961) + 0.01*r.NormFloat64()
	}
}

// PartialForces writes into dst the accelerations that the bodies of posJ
// exert on the bodies of posI (overwriting dst). posI and posJ may alias.
func PartialForces(dst, posI, posJ []float64, bI, bJ int) {
	for a := 0; a < bI; a++ {
		ax, ay, az := 0.0, 0.0, 0.0
		x, y, z := posI[3*a], posI[3*a+1], posI[3*a+2]
		for b := 0; b < bJ; b++ {
			dx := posJ[3*b] - x
			dy := posJ[3*b+1] - y
			dz := posJ[3*b+2] - z
			r2 := dx*dx + dy*dy + dz*dz + eps
			inv := 1 / (r2 * math.Sqrt(r2))
			ax += dx * inv
			ay += dy * inv
			az += dz * inv
		}
		dst[3*a] = ax
		dst[3*a+1] = ay
		dst[3*a+2] = az
	}
}

// Reduce sums the per-pair partials (in j order) into acc, overwriting it.
func Reduce(acc []float64, partials [][]float64) {
	for k := range acc {
		acc[k] = 0
	}
	for _, p := range partials {
		for k := range acc {
			acc[k] += p[k]
		}
	}
}

// Integrate advances one block by one explicit Euler step.
func Integrate(pos, vel, acc []float64, b int) {
	for k := 0; k < 3*b; k++ {
		vel[k] += acc[k] * dt
		pos[k] += vel[k] * dt
	}
}

// Reference runs the identical blocked algorithm serially (same floating-
// point evaluation order as the task version).
func Reference(p Params) []float64 {
	nb, b := p.nb(), p.B
	pos := make([][]float64, nb)
	vel := make([][]float64, nb)
	for i := 0; i < nb; i++ {
		pos[i] = make([]float64, 3*b)
		vel[i] = make([]float64, 3*b)
		InitBlock(pos[i], i, b)
	}
	partials := make([][]float64, nb)
	for j := range partials {
		partials[j] = make([]float64, 3*b)
	}
	acc := make([]float64, 3*b)
	for s := 0; s < p.Steps; s++ {
		newPos := make([][]float64, nb)
		newVel := make([][]float64, nb)
		for i := 0; i < nb; i++ {
			for j := 0; j < nb; j++ {
				PartialForces(partials[j], pos[i], pos[j], b, b)
			}
			Reduce(acc, partials)
			np := append([]float64(nil), pos[i]...)
			nv := append([]float64(nil), vel[i]...)
			Integrate(np, nv, acc, b)
			newPos[i], newVel[i] = np, nv
		}
		pos, vel = newPos, newVel
	}
	out := make([]float64, 0, 3*p.N)
	for i := 0; i < nb; i++ {
		out = append(out, pos[i]...)
	}
	return out
}

// graph states the simulation's task graph: per step every block pair's
// force task, then per block its reduce and integrate. All force tasks of a
// step come before any integrate, so every force reads pre-step positions
// (a synchronous update — the integrates' WAR edges enforce it). Block i
// lives on node i mod nodes; force tasks are spread over the whole machine
// (they read two position blocks wherever those live), so machines larger
// than the block count still fill up — the "block size depends on #nodes"
// flexibility Table I notes.
func graph(g *workload.Graph, p Params) {
	nb, b := p.nb(), int64(p.B)
	blockBytes := 3 * b * 8
	key := func(arr rune, i, j int) workload.Region { return workload.Region{Arr: arr, I: int32(i), J: int32(j)} }
	var selfForce, force, reduce, integrate rt.TaskFunc
	if g.Runs() {
		selfForce = func(ctx *rt.Ctx) { PartialForces(ctx.F64(1), ctx.F64(0), ctx.F64(0), p.B, p.B) }
		force = func(ctx *rt.Ctx) { PartialForces(ctx.F64(2), ctx.F64(0), ctx.F64(1), p.B, p.B) }
		reduce = func(ctx *rt.Ctx) {
			parts := make([][]float64, nb)
			for j := range parts {
				parts[j] = ctx.F64(j + 1)
			}
			Reduce(ctx.F64(0), parts)
		}
		integrate = func(ctx *rt.Ctx) { Integrate(ctx.F64(0), ctx.F64(1), ctx.F64(2), p.B) }
	}
	var accs []workload.Acc
	for step := 0; step < p.Steps; step++ {
		for i := 0; i < nb; i++ {
			for j := 0; j < nb; j++ {
				if i == j {
					g.Task("force", (i*nb+j)%g.Nodes(), 20*b*b, 2*blockBytes, selfForce,
						workload.RAcc(key('p', i, 0), blockBytes), workload.WAcc(key('q', i, i), blockBytes))
					continue
				}
				g.Task("force", (i*nb+j)%g.Nodes(), 20*b*b, 3*blockBytes, force,
					workload.RAcc(key('p', i, 0), blockBytes), workload.RAcc(key('p', j, 0), blockBytes),
					workload.WAcc(key('q', i, j), blockBytes))
			}
		}
		for i := 0; i < nb; i++ {
			accs = append(accs[:0], workload.WAcc(key('a', i, 0), blockBytes))
			for j := 0; j < nb; j++ {
				accs = append(accs, workload.RAcc(key('q', i, j), blockBytes))
			}
			g.Task("reduce", i%g.Nodes(), 3*b*int64(nb), blockBytes*int64(nb), reduce, accs...)
			g.Task("integrate", i%g.Nodes(), 6*b, 3*blockBytes, integrate,
				workload.RWAcc(key('p', i, 0), blockBytes), workload.RWAcc(key('v', i, 0), blockBytes),
				workload.RAcc(key('a', i, 0), blockBytes))
		}
	}
}

// data lays out the bodies' blocks on their lattice, at rest.
func data(s workload.Scale) (func(workload.Region) buffer.Buffer, workload.Verifier) {
	p := sizes[s]
	nb, b := p.nb(), p.B
	pos := make([]buffer.F64, nb)
	vel := make([]buffer.F64, nb)
	acc := make([]buffer.F64, nb)
	pacc := make([][]buffer.F64, nb)
	for i := 0; i < nb; i++ {
		pos[i] = buffer.NewF64(3 * b)
		vel[i] = buffer.NewF64(3 * b)
		acc[i] = buffer.NewF64(3 * b)
		InitBlock(pos[i], i, b)
		pacc[i] = make([]buffer.F64, nb)
		for j := 0; j < nb; j++ {
			pacc[i][j] = buffer.NewF64(3 * b)
		}
	}
	return func(reg workload.Region) buffer.Buffer {
		switch reg.Arr {
		case 'p':
			return pos[reg.I]
		case 'v':
			return vel[reg.I]
		case 'a':
			return acc[reg.I]
		}
		return pacc[reg.I][reg.J]
	}, func() error { return verify(pos, p) }
}

// verify compares every block's positions with the serial Reference.
func verify(pos []buffer.F64, p Params) error {
	want := Reference(p)
	for i := range pos {
		for k, got := range pos[i] {
			exp := want[i*3*p.B+k]
			if !kern.Within(math.Abs(got-exp), 1e-9*(1+math.Abs(exp))) {
				return fmt.Errorf("nbody: block %d coord %d = %g, want %g", i, k, got, exp)
			}
		}
	}
	return nil
}
