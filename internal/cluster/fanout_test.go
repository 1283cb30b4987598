package cluster

import (
	"fmt"
	"testing"

	"appfit/internal/simnet"
)

// TestInterleavedFanoutReleaseOrder pins the order in which a finishing
// producer releases its consumers when local and remote successors
// interleave in index order: local successors start in successor order
// before any send, sends leave in ascending destination node (here all on
// one cable, so that order is the delivery order), a delivery releases its
// tasks in successor order, and a destination's payload is max(0, largest
// edge). Two cores per node and a long third consumer on nodes 0 and 2 make
// the release order visible in the makespan (the first two released start,
// the third waits for the shorter of them); the expected Results were computed by the
// closure-and-map simulator this layout replaced (PR 22's parent).
func TestInterleavedFanoutReleaseOrder(t *testing.T) {
	job := Job{Name: "fanout", Tasks: []Task{
		{Node: 0, Cost: 100, ArgBytes: 64},
		{Node: 0, Cost: 50, ArgBytes: 64, Deps: []int{0}, DepBytes: []int64{0}},
		{Node: 2, Cost: 70, ArgBytes: 64, Deps: []int{0}, DepBytes: []int64{4000}},
		{Node: 0, Cost: 30, ArgBytes: 64, Deps: []int{0}, DepBytes: []int64{0}},
		{Node: 1, Cost: 40, ArgBytes: 64, Deps: []int{0}, DepBytes: []int64{1000}},
		{Node: 2, Cost: 20, ArgBytes: 64, Deps: []int{0}, DepBytes: []int64{9000}},
		{Node: 1, Cost: 60, ArgBytes: 64, Deps: []int{0}, DepBytes: []int64{3000}},
		{Node: 3, Cost: 10, ArgBytes: 64, Deps: []int{0}, DepBytes: []int64{-5}},
		{Node: 0, Cost: 5, ArgBytes: 64, Deps: []int{1, 2, 3, 4, 5, 6, 7}, DepBytes: []int64{0, 100, 0, 100, 100, 100, 100}},
		{Node: 0, Cost: 20000, ArgBytes: 64, Deps: []int{0}, DepBytes: []int64{0}},
		{Node: 2, Cost: 30000, ArgBytes: 64, Deps: []int{0}, DepBytes: []int64{10}},
	}}
	oneCable, err := simnet.NewTopology([]int{0, 1, 1, 1}, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	// The same DAG with node 0's long consumer on the critical path instead
	// of node 2's, so the local release order decides the makespan.
	localCritical := Job{Name: "fanout-local", Tasks: append([]Task(nil), job.Tasks...)}
	localCritical.Tasks[9].Cost = 40000
	for _, c := range []struct {
		name string
		job  Job
		cfg  Config
		want string
	}{
		{"flat", job, Config{Nodes: 4, CoresPerNode: 2},
			"{Makespan:33419 BusyTime:50385 PrimaryTime:50385 RedundantTime:0 OverheadTime:0 Replicated:0 SDCDetected:0 DUERecovered:0 Reexecutions:0 Messages:8 BytesSent:12500 WireBytes:12500}"},
		{"one-cable", job, Config{Nodes: 4, CoresPerNode: 2, Topo: oneCable},
			"{Makespan:35519 BusyTime:50385 PrimaryTime:50385 RedundantTime:0 OverheadTime:0 Replicated:0 SDCDetected:0 DUERecovered:0 Reexecutions:0 Messages:8 BytesSent:12500 WireBytes:12500}"},
		{"replicated", job, Config{Nodes: 4, CoresPerNode: 2, Topo: oneCable, Replicated: All(len(job.Tasks))},
			"{Makespan:35599 BusyTime:100792 PrimaryTime:50385 RedundantTime:50385 OverheadTime:44 Replicated:11 SDCDetected:0 DUERecovered:0 Reexecutions:0 Messages:8 BytesSent:12500 WireBytes:12500}"},
		{"local-critical", localCritical, Config{Nodes: 4, CoresPerNode: 2},
			"{Makespan:40130 BusyTime:70385 PrimaryTime:70385 RedundantTime:0 OverheadTime:0 Replicated:0 SDCDetected:0 DUERecovered:0 Reexecutions:0 Messages:8 BytesSent:12500 WireBytes:12500}"},
	} {
		res, err := Run(c.job, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", res); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}
