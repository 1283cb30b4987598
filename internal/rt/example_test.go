package rt_test

import (
	"fmt"

	"appfit/internal/buffer"
	"appfit/internal/rt"
)

// Example shows the basic dataflow submission pattern: two tasks chained by
// an inout dependency on region "A" and an independent task on "B".
func Example() {
	r := rt.New(rt.Config{Workers: 2})
	a := buffer.F64{1}
	b := buffer.F64{10}
	incr := func(ctx *rt.Ctx) { ctx.F64(0)[0]++ }
	r.Submit("A1", incr, rt.Inout("A", a))
	r.Submit("A2", incr, rt.Inout("A", a))
	r.Submit("B", incr, rt.Inout("B", b))
	if err := r.Shutdown(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(a[0], b[0])
	// Output: 3 11
}
