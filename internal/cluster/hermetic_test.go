package cluster

import (
	"reflect"
	"sync"
	"testing"

	"appfit/internal/fault"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
)

// hermeticJob builds a two-node DAG with cross-node payloads, enough
// structure to exercise replication, recovery and the network.
func hermeticJob() Job {
	j := Job{Name: "hermetic"}
	for i := 0; i < 64; i++ {
		t := Task{
			Label:    "k",
			Node:     i % 4,
			Cost:     simtime.Time(100 + i*7),
			ArgBytes: int64(1024 + i*64),
		}
		if i > 0 {
			t.Deps = []int{i - 1}
			t.DepBytes = []int64{int64(256 * i)}
		}
		if i > 4 {
			t.Deps = append(t.Deps, i-4)
			t.DepBytes = append(t.DepBytes, 128)
		}
		j.Tasks = append(j.Tasks, t)
	}
	return j
}

// TestRunConcurrentHermetic is the hermeticity regression test behind the
// sweep engine (DESIGN.md §11): N concurrent cluster.Run invocations of
// the SAME job value and the SAME config value — shared Replicated slice,
// shared fault injector, shared topology — must each
// return a result bitwise equal to a serial reference run. Run builds all
// mutable simulation state per invocation and injector draws are pure in
// (seed, task, attempt); this test is what keeps that true. Run it with
// -race: aliasing the shared inputs from any run would trip the detector
// even if results happened to agree.
func TestRunConcurrentHermetic(t *testing.T) {
	job := hermeticJob()
	topo, err := simnet.BlockTopology(4, 2, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Nodes:        4,
		CoresPerNode: 2,
		ReplicaCores: 1,
		Replicated:   All(len(job.Tasks)),
		Injector:     fault.NewFixedRate(42, 0.05, 0.05),
		Topo:         topo,
	}
	want, err := Run(job, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	results := make([]Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = Run(job, cfg)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got := results[g]; !reflect.DeepEqual(got, want) {
			t.Fatalf("goroutine %d: concurrent result differs from serial reference\ngot:  %+v\nwant: %+v",
				g, got, want)
		}
	}
}

// TestRunDoesNotMutateInputs: the job's slices and the config's Replicated
// set must be exactly as the caller built them after a faulty replicated
// run — the other half of the hermeticity contract.
func TestRunDoesNotMutateInputs(t *testing.T) {
	job := hermeticJob()
	ref := hermeticJob()
	cfg := Config{
		Nodes: 4, CoresPerNode: 2,
		Replicated: All(len(job.Tasks)),
		Injector:   fault.NewFixedRate(1, 0.1, 0.1),
	}
	repl := append([]bool(nil), cfg.Replicated...)
	if _, err := Run(job, cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(job, ref) {
		t.Fatal("Run mutated the job")
	}
	if !reflect.DeepEqual(cfg.Replicated, repl) {
		t.Fatal("Run mutated Config.Replicated")
	}
}
