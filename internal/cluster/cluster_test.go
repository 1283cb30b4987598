package cluster

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"appfit/internal/fault"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
	"appfit/internal/xrand"
)

// chainJob returns n tasks in a serial chain, each of unit cost.
func chainJob(n int, cost simtime.Time) Job {
	j := Job{Name: "chain"}
	for i := 0; i < n; i++ {
		t := Task{Label: "t", Node: 0, Cost: cost}
		if i > 0 {
			t.Deps = []int{i - 1}
		}
		j.Tasks = append(j.Tasks, t)
	}
	return j
}

// fanJob returns n independent tasks of unit cost on node 0.
func fanJob(n int, cost simtime.Time) Job {
	j := Job{Name: "fan"}
	for i := 0; i < n; i++ {
		j.Tasks = append(j.Tasks, Task{Label: "t", Node: 0, Cost: cost})
	}
	return j
}

func TestChainMakespanIsSerial(t *testing.T) {
	job := chainJob(10, 100)
	res, err := Run(job, Config{Nodes: 1, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 1000 {
		t.Fatalf("chain makespan %d, want 1000", res.Makespan)
	}
	if res.PrimaryTime != 1000 || res.BusyTime != 1000 {
		t.Fatalf("%+v", res)
	}
}

func TestFanScalesWithCores(t *testing.T) {
	job := fanJob(16, 1000)
	for _, cores := range []int{1, 2, 4, 8, 16} {
		res, err := Run(job, Config{Nodes: 1, CoresPerNode: cores})
		if err != nil {
			t.Fatal(err)
		}
		want := simtime.Time(16 / cores * 1000)
		if res.Makespan != want {
			t.Fatalf("%d cores: makespan %d, want %d", cores, res.Makespan, want)
		}
	}
}

func TestSpeedupAndOverheadHelpers(t *testing.T) {
	base := Result{Makespan: 1000}
	r := Result{Makespan: 250}
	if s := r.Speedup(base); s != 4 {
		t.Fatalf("speedup %v", s)
	}
	if o := (Result{Makespan: 1025}).OverheadPct(base); math.Abs(o-2.5) > 1e-12 {
		t.Fatalf("overhead %v", o)
	}
	if (Result{}).Speedup(base) != 0 || r.OverheadPct(Result{}) != 0 {
		t.Fatal("zero guards")
	}
}

func TestReplicationUsesSpareCores(t *testing.T) {
	// 8 independent tasks on 16 cores: full replication needs 16 cores,
	// so the makespan must not grow at all (the Figure 4 scenario).
	job := fanJob(8, 1000)
	base, err := Run(job, Config{Nodes: 1, CoresPerNode: 16})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := Run(job, Config{Nodes: 1, CoresPerNode: 16, Replicated: All(len(job.Tasks))})
	if err != nil {
		t.Fatal(err)
	}
	// Only checkpoint/compare overhead (zero here: ArgBytes=0) may remain.
	if repl.Makespan != base.Makespan {
		t.Fatalf("replication on spare cores changed makespan: %d vs %d", repl.Makespan, base.Makespan)
	}
	if repl.Replicated != 8 || repl.RedundantTime != 8000 {
		t.Fatalf("%+v", repl)
	}
}

func TestReplicationOnSaturatedCoresDoubles(t *testing.T) {
	// 8 independent tasks on 8 cores: replicas have no spare cores, so
	// complete replication must double the makespan.
	job := fanJob(8, 1000)
	base, _ := Run(job, Config{Nodes: 1, CoresPerNode: 8})
	repl, _ := Run(job, Config{Nodes: 1, CoresPerNode: 8, Replicated: All(len(job.Tasks))})
	if repl.Makespan != 2*base.Makespan {
		t.Fatalf("saturated replication: %d vs base %d", repl.Makespan, base.Makespan)
	}
}

func TestCheckpointAndCompareCharged(t *testing.T) {
	job := Job{Tasks: []Task{{Node: 0, Cost: 1000, ArgBytes: 32000}}}
	cfg := Config{Nodes: 1, CoresPerNode: 2, Replicated: All(1)}
	res, err := Run(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint: 32000B/32GB/s = 1µs = 1000ns on the primary's critical
	// path; compare: another 1000ns after both complete.
	if res.Makespan != 1000+1000+1000 {
		t.Fatalf("makespan %d, want 3000", res.Makespan)
	}
	if res.OverheadTime != 2000 {
		t.Fatalf("overhead %d", res.OverheadTime)
	}
}

func TestSDCTriggersReexecution(t *testing.T) {
	inj := fault.NewScript().Set(1, 0, fault.SDC)
	job := Job{Tasks: []Task{{Node: 0, Cost: 1000}}}
	res, err := Run(job, Config{Nodes: 1, CoresPerNode: 2, Replicated: All(1), Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.SDCDetected != 1 || res.Reexecutions != 1 {
		t.Fatalf("%+v", res)
	}
	// Primary+replica in parallel (1000) then re-execution (1000).
	if res.Makespan != 2000 {
		t.Fatalf("makespan %d", res.Makespan)
	}
}

func TestDUETriggersReexecution(t *testing.T) {
	inj := fault.NewScript().Set(1, 1, fault.DUE)
	job := Job{Tasks: []Task{{Node: 0, Cost: 500}}}
	res, err := Run(job, Config{Nodes: 1, CoresPerNode: 2, Replicated: All(1), Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.DUERecovered != 1 || res.Reexecutions != 1 {
		t.Fatalf("%+v", res)
	}
}

func TestUnreplicatedFaultsDoNotDelay(t *testing.T) {
	inj := fault.NewScript().Set(1, 0, fault.SDC)
	job := Job{Tasks: []Task{{Node: 0, Cost: 500}}}
	res, err := Run(job, Config{Nodes: 1, CoresPerNode: 1, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 500 || res.Reexecutions != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestMaxAttemptsBoundsRecovery(t *testing.T) {
	inj := fault.NewScript()
	for a := 0; a < 20; a++ {
		inj.Set(1, a, fault.DUE)
	}
	job := Job{Tasks: []Task{{Node: 0, Cost: 100}}}
	res, err := Run(job, Config{Nodes: 1, CoresPerNode: 2, Replicated: All(1), Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	// 2 initial + 6 re-executions = vote.MaxAttempts, then the task is
	// forced through (the runtime reports the error; the simulator charges
	// time).
	if res.Reexecutions != 6 {
		t.Fatalf("reexecs %d", res.Reexecutions)
	}
}

// TestTaskStateSize: the recovery rule rides in a task's 20-byte state,
// which Run sizes once per task.
func TestTaskStateSize(t *testing.T) {
	if n := unsafe.Sizeof(taskState{}); n > 20 {
		t.Fatalf("taskState is %d bytes, want ≤ 20", n)
	}
}

func TestCrossNodeDependencyPaysNetwork(t *testing.T) {
	// A flat fabric other than Marenostrum is a one-rank-per-node topology.
	net := simnet.Config{LatencySec: 1e-6, BandwidthBytesPerSec: 1e9}
	topo, err := simnet.BlockTopology(2, 1, net, net)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Tasks: []Task{
		{Node: 0, Cost: 1000},
		{Node: 1, Cost: 1000, Deps: []int{0}, DepBytes: []int64{1000}},
	}}
	res, err := Run(job, Config{Nodes: 2, CoresPerNode: 1, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	// 1000 + transfer(1µs latency + 1µs payload = 2000ns) + 1000.
	if res.Makespan != 4000 {
		t.Fatalf("makespan %d, want 4000", res.Makespan)
	}
	if res.Messages != 1 || res.BytesSent != 1000 {
		t.Fatalf("%+v", res)
	}
}

func TestSameNodeDependencyFree(t *testing.T) {
	job := Job{Tasks: []Task{
		{Node: 0, Cost: 1000},
		{Node: 0, Cost: 1000, Deps: []int{0}, DepBytes: []int64{1 << 30}},
	}}
	res, err := Run(job, Config{Nodes: 1, CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 2000 {
		t.Fatalf("same-node edge must be free: %d", res.Makespan)
	}
}

func TestValidation(t *testing.T) {
	bad := Job{Tasks: []Task{{Node: 5, Cost: 1}}}
	if _, err := Run(bad, Config{Nodes: 2, CoresPerNode: 1}); err == nil {
		t.Fatal("bad node must fail")
	}
	fwd := Job{Tasks: []Task{{Node: 0, Cost: 1, Deps: []int{0}}}}
	if _, err := Run(fwd, Config{Nodes: 1, CoresPerNode: 1}); err == nil {
		t.Fatal("self/forward dep must fail")
	}
	mis := Job{Tasks: []Task{{Node: 0, Cost: 1}, {Node: 0, Cost: 1, Deps: []int{0}, DepBytes: []int64{1, 2}}}}
	if _, err := Run(mis, Config{Nodes: 1, CoresPerNode: 1}); err == nil {
		t.Fatal("dep-bytes mismatch must fail")
	}
	neg := Job{Tasks: []Task{{Node: 0, Cost: -1}}}
	if _, err := Run(neg, Config{Nodes: 1, CoresPerNode: 1}); err == nil {
		t.Fatal("negative cost must fail")
	}
}

func TestPropertyMakespanBounds(t *testing.T) {
	// Makespan must lie between critical-path bound and serial bound, for
	// random DAGs without faults or network costs.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 20 + r.Intn(60)
		job := Job{}
		longest := make([]simtime.Time, n)
		var serial, cp simtime.Time
		for i := 0; i < n; i++ {
			cost := simtime.Time(1 + r.Intn(1000))
			t := Task{Node: 0, Cost: cost}
			ndeps := r.Intn(3)
			if i > 0 {
				for d := 0; d < ndeps; d++ {
					t.Deps = append(t.Deps, r.Intn(i))
				}
			}
			job.Tasks = append(job.Tasks, t)
			serial += cost
			l := cost
			for _, d := range t.Deps {
				if longest[d]+cost > l {
					l = longest[d] + cost
				}
			}
			longest[i] = l
			if l > cp {
				cp = l
			}
		}
		cores := 1 + r.Intn(8)
		res, err := Run(job, Config{Nodes: 1, CoresPerNode: cores})
		if err != nil {
			return false
		}
		return res.Makespan >= cp && res.Makespan <= serial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMoreCoresNeverSlower(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 30 + r.Intn(50)
		job := Job{}
		for i := 0; i < n; i++ {
			t := Task{Node: 0, Cost: simtime.Time(1 + r.Intn(500))}
			if i > 0 && r.Intn(2) == 0 {
				t.Deps = append(t.Deps, r.Intn(i))
			}
			job.Tasks = append(job.Tasks, t)
		}
		r2, err2 := Run(job, Config{Nodes: 1, CoresPerNode: 2})
		r8, err8 := Run(job, Config{Nodes: 1, CoresPerNode: 8})
		if err2 != nil || err8 != nil {
			return false
		}
		return r8.Makespan <= r2.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	job := chainJob(50, 100)
	inj := fault.NewFixedRate(3, 0.1, 0.1)
	cfg := Config{Nodes: 1, CoresPerNode: 4, Replicated: All(50), Injector: inj}
	r1, err := Run(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj2 := fault.NewFixedRate(3, 0.1, 0.1)
	cfg.Injector = inj2
	r2, err := Run(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("nondeterministic simulation:\n%+v\n%+v", r1, r2)
	}
}

func TestUtilizationAndImbalance(t *testing.T) {
	// 4 equal tasks on 2 nodes × 1 core: both nodes busy the whole time.
	job := Job{Tasks: []Task{
		{Node: 0, Cost: 100}, {Node: 0, Cost: 100},
		{Node: 1, Cost: 100}, {Node: 1, Cost: 100},
	}}
	res, err := Run(job, Config{Nodes: 2, CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 200 || res.BusyTime != 400 {
		t.Fatalf("balanced: makespan %d, busy %d; want 200, 400", res.Makespan, res.BusyTime)
	}
	// Skewed placement: tasks are pinned to their home node, so node 0
	// runs all four in turn while node 1 idles.
	for i := range job.Tasks {
		job.Tasks[i].Node = 0
	}
	res, err = Run(job, Config{Nodes: 2, CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 400 || res.BusyTime != 400 {
		t.Fatalf("skewed: makespan %d, busy %d; want 400, 400", res.Makespan, res.BusyTime)
	}
}
