package sweep_test

import (
	"context"
	"fmt"

	"appfit/internal/cluster"
	"appfit/internal/sweep"
)

// ExamplePrepare sweeps one job over four machine configurations. The job
// is prepared once, so each request's cache key costs a hash of its config,
// not of the task list — and resubmitting the batch is answered entirely
// from the engine's cache.
func ExamplePrepare() {
	p := sweep.Prepare(cluster.Job{Name: "fork", Tasks: []cluster.Task{
		{Label: "a", Cost: 100},
		{Label: "b", Cost: 300, Deps: []int{0}},
		{Label: "c", Cost: 300, Deps: []int{0}},
	}})
	var reqs []sweep.Request
	for cores := 1; cores <= 2; cores++ {
		reqs = append(reqs,
			p.Request(cluster.Config{CoresPerNode: cores}),
			p.Request(cluster.Config{CoresPerNode: cores, Replicated: p.AllReplicated()}))
	}
	eng := sweep.New(sweep.Options{})
	for pass := 0; pass < 2; pass++ {
		resps, err := eng.RunBatch(context.Background(), reqs)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		for _, r := range resps {
			fmt.Print(int64(r.Result.Makespan), " ")
		}
		fmt.Println("hits:", eng.Stats().Hits)
	}
	// Output:
	// 700 1400 400 700 hits: 0
	// 700 1400 400 700 hits: 4
}
