package dist_test

import (
	"fmt"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/rt"
)

// ExampleNewWorld shows the distributed (OmpSs+MPI style) substrate: two
// ranks exchanging a block through dependency-gated send/receive tasks on
// the world communicator.
func ExampleNewWorld() {
	w := dist.NewWorld(dist.Config{Ranks: 2})
	c := w.Comm()
	src := buffer.F64{42}
	dst := buffer.NewF64(1)
	c.Rank(0).Send(1, 0, "s", src)
	c.Rank(1).Recv(0, 0, "d", dst)
	if err := w.Shutdown(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(dst[0])
	// Output: 42
}

// ExampleComm_Split derives two isolated sub-communicators by color and
// runs a reduction in each: comm ranks are densely re-numbered by key, the
// groups share a tag, and the private matching context of each group
// guarantees their traffic can never cross.
func ExampleComm_Split() {
	w := dist.NewWorld(dist.Config{Ranks: 4})
	colors := []int{0, 1, 0, 1} // evens and odds
	keys := []int{0, 0, 1, 1}
	subs, err := w.Comm().Split(colors, keys)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	vals := []buffer.F64{{1}, {10}, {2}, {20}}
	subs[0].AllreduceSum(0, "s", []buffer.F64{vals[0], vals[2]})
	subs[1].AllreduceSum(0, "s", []buffer.F64{vals[1], vals[3]})
	if err := w.Shutdown(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(vals[0][0], vals[1][0], vals[2][0], vals[3][0])
	// Output: 3 30 3 30
}

// ExampleNewWorld_pingpong shows the hybrid model under selective
// replication: two ranks relax a block toward each other's state and
// exchange it every iteration with seeded fault injectors. Communication
// tasks gate on the dataflow dependencies and are never replicated, so
// exactly ranks × iters messages cross the wire.
func ExampleNewWorld_pingpong() {
	const iters = 4
	w := dist.NewWorld(dist.Config{
		Ranks: 2,
		RT: func(rank int) rt.Config {
			return rt.Config{
				Workers:  2,
				Selector: core.NewAppFIT(0, iters), // zero budget: protect every compute task
				Injector: fault.NewSeeded(uint64(rank) + 1),
			}
		},
	})
	c := w.Comm()
	local := []buffer.F64{{0}, {100}}
	remote := []buffer.F64{buffer.NewF64(1), buffer.NewF64(1)}
	for it := 0; it < iters; it++ {
		for rk := 0; rk < 2; rk++ {
			rk := rk
			c.Rank(rk).Runtime().Submit("relax", func(ctx *rt.Ctx) {
				ctx.F64(0)[0] = (ctx.F64(0)[0] + ctx.F64(1)[0]) / 2
			}, rt.Inout("local", local[rk]), rt.In("remote", remote[rk]))
			c.Rank(rk).Send(1-rk, it, "local", local[rk])
			c.Rank(rk).Recv(1-rk, it, "remote", remote[rk])
		}
	}
	if err := w.Shutdown(); err != nil {
		fmt.Println("error:", err)
		return
	}
	st := w.Stats()
	fmt.Printf("converged: %v %v\n", local[0][0], local[1][0])
	fmt.Printf("replicated %d of %d compute tasks, messages sent: %d\n",
		st.Replicated, 2*iters, w.MessagesSent())
	// Output:
	// converged: 25 25
	// replicated 8 of 8 compute tasks, messages sent: 8
}
