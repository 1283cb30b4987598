package cluster_test

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/rt"
	"appfit/internal/simtime"
	"appfit/internal/vote"
	"appfit/internal/xrand"
)

// replicateIDs replicates exactly the tasks whose ids it holds.
type replicateIDs map[uint64]bool

func (replicateIDs) Name() string             { return "ids" }
func (s replicateIDs) Decide(t fit.Task) bool { return s[t.ID] }
func (replicateIDs) Observe(fit.Task, bool)   {}

// TestRecoveryMatchesRuntime holds the simulator's Figure 2 to the
// runtime's: a random DAG with a random replicated subset and a random
// fault script runs through rt (real buffers, real comparisons) and
// through Run, and the two must count the same replications, detections,
// recoveries and re-executions. Each SDC flips its own bit (the attempt
// index) of a vote.MaxAttempts-bit output, so no two corrupted results
// coincide; rt would rightly adopt two that did (DESIGN.md §3). Some tasks
// must exhaust the attempt budget, so both engines' give-up paths are
// compared too.
func TestRecoveryMatchesRuntime(t *testing.T) {
	giveUps := 0
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(40)
		job := cluster.Job{Name: "differential"}
		sel := replicateIDs{}
		inj := fault.NewScript()
		var faulted []string
		for i := 0; i < n; i++ {
			id := uint64(i + 1) // rt numbers tasks from 1 in submit order; Run draws with index+1
			task := cluster.Task{Cost: simtime.Time(1 + r.Intn(100))}
			for d := r.Intn(4); d > 0 && i > 0; d-- {
				if dep := r.Intn(i); !slices.Contains(task.Deps, dep) {
					task.Deps = append(task.Deps, dep)
				}
			}
			job.Tasks = append(job.Tasks, task)
			sel[id] = r.Intn(2) == 0
			outcomes := make([]byte, vote.MaxAttempts)
			for a := range outcomes {
				outcomes[a] = 'C'
				switch r.Intn(4) {
				case 0:
					outcomes[a] = 'S'
					inj.Set(id, a, fault.SDC).SetBit(id, a, int64(a))
				case 1:
					outcomes[a] = 'D'
					inj.Set(id, a, fault.DUE)
				}
			}
			if sel[id] {
				faulted = append(faulted, fmt.Sprintf("%d:%s", id, outcomes))
			}
		}
		repl := make([]bool, n)
		for i := range repl {
			repl[i] = sel[uint64(i+1)]
		}
		sim, err := cluster.Run(job, cluster.Config{CoresPerNode: 2, Replicated: repl, Injector: inj})
		if err != nil {
			t.Error(err)
			return false
		}
		got, voteFailures := runOnRuntime(job, sel, inj)
		giveUps += voteFailures
		want := [4]int{sim.Replicated, sim.SDCDetected, sim.DUERecovered, sim.Reexecutions}
		if got != want {
			t.Errorf("seed %#x, replicated task:outcomes %v: rt counts (replicated, SDC detected, DUE recovered, re-executions) %v, cluster %v",
				seed, faulted, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if giveUps == 0 {
		t.Fatal("no task exhausted its attempts: the give-up path went unchecked")
	}
}

// runOnRuntime submits job to a one-worker rt, each task an Inout on its
// own one-byte region plus an In on each dependency's, and returns its
// replicated, SDC-detected, DUE-recovered and re-execution counts and its
// vote failures.
func runOnRuntime(job cluster.Job, sel replicateIDs, inj fault.Injector) ([4]int, int) {
	run := rt.New(rt.Config{Workers: 1, Selector: sel, Injector: inj})
	bufs := make([]buffer.U8, len(job.Tasks))
	for i, task := range job.Tasks {
		bufs[i] = buffer.NewU8(1)
		args := []rt.Arg{rt.Inout(fmt.Sprint(i), bufs[i])}
		for _, d := range task.Deps {
			args = append(args, rt.In(fmt.Sprint(d), bufs[d]))
		}
		run.Submit("t", func(c *rt.Ctx) {
			out := c.U8(0)
			out[0] = 3*out[0] + 1
			for k := 1; k < c.NArgs(); k++ {
				out[0] += c.U8(k)[0]
			}
		}, args...)
	}
	_ = run.Shutdown() // an exhausted vote is an error here and a counted give-up in Run
	st := run.Stats()
	return [4]int{int(st.Replicated), int(st.SDCDetected), int(st.DUERecovered), int(st.Reexecutions)}, int(st.VoteFailures)
}
