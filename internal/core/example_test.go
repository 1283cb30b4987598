package core_test

import (
	"fmt"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/fit"
	"appfit/internal/rt"
)

// ExampleNewAppFIT shows the paper's usage scenario: a FIT threshold that
// keeps today's reliability while error rates are 10× higher, with the
// heuristic choosing which tasks to replicate.
func ExampleNewAppFIT() {
	const tasks = 100
	const bytesPerTask = 1 << 20
	rates := fit.Roadrunner()
	due, sdc := rates.TaskFIT(bytesPerTask * tasks)
	threshold := due + sdc // app FIT at 1× rates
	sel := core.NewAppFIT(threshold, tasks)

	r := rt.New(rt.Config{
		Workers:  2,
		Selector: sel,
		Rates:    rates.Scale(10), RatesSet: true,
	})
	for i := 0; i < tasks; i++ {
		buf := buffer.NewF64(bytesPerTask / 8)
		r.Submit("work", func(ctx *rt.Ctx) {
			x := ctx.F64(0)
			x[0]++
		}, rt.Inout(fmt.Sprintf("T%d", i), buf))
	}
	if err := r.Shutdown(); err != nil {
		fmt.Println("error:", err)
		return
	}
	st := r.Stats()
	fmt.Printf("replicated %d of %d tasks, unprotected FIT within threshold: %v\n",
		st.Replicated, tasks, sel.CurrentFIT() <= threshold)
	// Output: replicated 90 of 100 tasks, unprotected FIT within threshold: true
}
