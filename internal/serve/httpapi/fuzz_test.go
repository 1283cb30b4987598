package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/sweep"
)

// FuzzJobSpec drives the handler's per-spec path — decode a JobSpec, then
// resolve it (JobSpec.Request) — with arbitrary bytes: it must never
// panic, every rejection must wrap ErrSpec, and every accepted request
// must be inside the bounds and, if it injects faults, seeded. The seeds sit on the bounds' edges; the batch
// bound is held by TestSpecBoundsAreInclusive, since a seed long enough to
// reach it stalls the fuzzer's minimizer. Accepted specs build their job
// at Tiny scale whatever they name: the target prices validation and the
// job memo, not the builders, so a fuzzer that finds "medium" does not
// spend minutes and gigabytes on 300 000-task jobs.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"bench":"stream","scale":"small","nodes":4,"rate":0.01,"seed":7,"replicate":true}`,
		fmt.Sprintf(`{"bench":"linpack","scale":"medium","nodes":%d,"cores":%d}`, MaxNodes, MaxCores),
		fmt.Sprintf(`{"bench":"linpack","nodes":%d}`, MaxNodes+1),
		fmt.Sprintf(`{"bench":"linpack","cores":%d}`, MaxCores+1),
		`{"bench":"fft","nodes":-1,"cores":-1}`,
		`{"bench":"fft","rate":0.9999999,"seed":1}`,
		`{"bench":"fft","rate":0.01}`,
		`{"bench":"fft","rate":1}`,
		`{"bench":"fft","rate":-1e-300}`,
		`{"bench":"nope","scale":"galactic"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	defer func(real func(workload.Workload, workload.Scale, int) *sweep.Prepared) { jobs = real }(jobs)
	tiny := &bench.JobMemo{Build: func(w workload.Workload, _ workload.Scale, nodes int) *sweep.Prepared {
		return sweep.Prepare(w.BuildJob(workload.Tiny, nodes, workload.DefaultCostModel()))
	}}
	jobs = tiny.Get
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		req, err := spec.Request()
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("%s: error %v does not wrap ErrSpec", body, err)
			}
			return
		}
		if c := req.Config; c.Nodes < 1 || c.Nodes > MaxNodes || c.CoresPerNode < 1 || c.CoresPerNode > MaxCores {
			t.Fatalf("%s: accepted %d nodes × %d cores", body, c.Nodes, c.CoresPerNode)
		}
		if spec.Rate > 0 && spec.Seed == 0 {
			t.Fatalf("%s: accepted a fault rate without a seed", body)
		}
	})
}
