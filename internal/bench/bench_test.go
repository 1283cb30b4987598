// Conformance tests run every Table-I workload through the same checks:
// numeric correctness on the real runtime (serial and parallel), exact
// correctness under full replication with an injected-fault storm, and
// well-formedness plus sanity bounds of the simulator job.
package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/simtime"
	"appfit/internal/sweep"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 9 {
		t.Fatalf("expected 9 benchmarks, have %d", len(all))
	}
	if len(SharedMemory()) != 5 || len(DistributedSet()) != 4 {
		t.Fatalf("shared/distributed split wrong: %d/%d", len(SharedMemory()), len(DistributedSet()))
	}
	// Every value's Spec is complete: a nil func panics below (Tasks may
	// be nil; TestBuildJobSizeHints holds the hints).
	seen := map[string]bool{}
	for _, w := range all {
		if w.Name() == "" || seen[w.Name()] {
			t.Fatalf("bad or duplicate name %q", w.Name())
		}
		seen[w.Name()] = true
		if w.Description() == "" || w.PaperSize() == "" {
			t.Fatalf("%s: missing Table I metadata", w.Name())
		}
		if w.InputBytes(workload.Tiny) <= 0 {
			t.Fatalf("%s: non-positive input bytes", w.Name())
		}
		if w.InputBytes(workload.Small) < w.InputBytes(workload.Tiny) {
			t.Fatalf("%s: scales not monotone", w.Name())
		}
		if len(w.BuildJob(workload.Tiny, 1, workload.DefaultCostModel()).Tasks) == 0 {
			t.Fatalf("%s: the graph emits no task", w.Name())
		}
		r := rt.New(rt.Config{Workers: 1})
		verify := w.BuildRT(r, workload.Tiny)
		if err := r.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if err := verify(); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
	}
	if _, err := ByName("cholesky"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
}

// TestByNameAllocs: appfitd looks up every job spec's benchmark by name, so
// a lookup scans the registry's table and allocates nothing.
func TestByNameAllocs(t *testing.T) {
	got := testing.AllocsPerRun(100, func() {
		if _, err := ByName("stream"); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("ByName makes %.1f allocations a lookup, want 0", got)
	}
}

func TestAllWorkloadsCorrectSerial(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			r := rt.New(rt.Config{Workers: 1})
			verify := w.BuildRT(r, workload.Tiny)
			if err := r.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if err := verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllWorkloadsCorrectParallel(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			r := rt.New(rt.Config{Workers: 4})
			verify := w.BuildRT(r, workload.Tiny)
			if err := r.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if err := verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllWorkloadsSurviveFaultStorm(t *testing.T) {
	// With complete replication and moderate injected fault rates, every
	// workload must still verify exactly: all faults detected + recovered.
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			inj := fault.NewFixedRate(0xABCD, 0.03, 0.03)
			r := rt.New(rt.Config{Workers: 4, Selector: core.ReplicateAll{}, Injector: inj})
			verify := w.BuildRT(r, workload.Tiny)
			if err := r.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if err := verify(); err != nil {
				t.Fatal(err)
			}
			st := r.Stats()
			if st.UnprotectedSDC != 0 || st.UnprotectedDUE != 0 {
				t.Fatalf("unprotected events under full replication: %+v", st)
			}
		})
	}
}

func TestAllJobsValidAndScheduleable(t *testing.T) {
	cm := workload.DefaultCostModel()
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			nodes := 1
			if w.Distributed() {
				nodes = 4
			}
			job := w.BuildJob(workload.Tiny, nodes, cm)
			if len(job.Tasks) == 0 {
				t.Fatal("empty job")
			}
			res, err := cluster.Run(job, cluster.Config{Nodes: nodes, CoresPerNode: 2})
			if err != nil {
				t.Fatal(err)
			}
			var serial simtime.Time
			for _, task := range job.Tasks {
				serial += task.Cost
			}
			if res.Makespan <= 0 || res.Makespan > serial*10 {
				t.Fatalf("implausible makespan %d (serial %d)", res.Makespan, serial)
			}
		})
	}
}

func TestJobsScaleWithCores(t *testing.T) {
	// Every workload's simulated makespan must not grow with core count.
	cm := workload.DefaultCostModel()
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			job := w.BuildJob(workload.Tiny, 1, cm)
			r1, err := cluster.Run(job, cluster.Config{Nodes: 1, CoresPerNode: 1})
			if err != nil {
				t.Fatal(err)
			}
			r8, err := cluster.Run(job, cluster.Config{Nodes: 1, CoresPerNode: 8})
			if err != nil {
				t.Fatal(err)
			}
			if r8.Makespan > r1.Makespan {
				t.Fatalf("more cores slower: %d vs %d", r8.Makespan, r1.Makespan)
			}
		})
	}
}

func TestRTAndJobTaskCountsMatch(t *testing.T) {
	// Both engines run the one graph a benchmark states, so the task counts
	// agree whatever the worker and node counts (TestGraphsAgree compares
	// the tasks themselves).
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			r := rt.New(rt.Config{Workers: 2})
			_ = w.BuildRT(r, workload.Tiny)
			if err := r.Shutdown(); err != nil {
				t.Fatal(err)
			}
			rtTasks := int(r.Stats().Submitted)
			job := w.BuildJob(workload.Tiny, 2, workload.DefaultCostModel())
			if len(job.Tasks) != rtTasks {
				t.Fatalf("task counts diverge: rt=%d job=%d", rtTasks, len(job.Tasks))
			}
		})
	}
}

// TestBuiltJobsGolden pins the jobs the builders emit — every task's label,
// node, cost, footprint, predecessor list and edge payloads, through the
// sweep engine's content hash — for all nine benchmarks at Tiny and Small
// on 1, 4 and 64 nodes. Cache keys, and the figures keyed by them, are only
// stable if the built jobs are. A change to the key's config encoding also
// moves the digest; then the new constant must be what the parent's
// builders hash to under the new encoder, which shows the jobs held.
func TestBuiltJobsGolden(t *testing.T) {
	const want = "e592d01aac41fce47e56de503394898ed8a2619845dc67ffcd59813f6b16e5aa"
	h := sha256.New()
	var keys []string
	for _, w := range All() {
		for _, scale := range []workload.Scale{workload.Tiny, workload.Small} {
			for _, nodes := range []int{1, 4, 64} {
				key, ok := sweep.RunKey(w.BuildJob(scale, nodes, workload.DefaultCostModel()), cluster.Config{Nodes: nodes})
				if !ok {
					t.Fatalf("%s: uncacheable request", w.Name())
				}
				h.Write(key[:])
				keys = append(keys, fmt.Sprintf("%s %s nodes=%d %x", w.Name(), scale, nodes, key))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("built jobs drifted: digest %s, want %s\nper-job keys:\n%s", got, want, strings.Join(keys, "\n"))
	}
}

// TestBuildJobSizeHints: every builder that knows its task count passes it
// to NewJobGraph exactly — the task list never regrows and carries no
// slack. sparselu's count depends on its fill pattern and passes no hint.
func TestBuildJobSizeHints(t *testing.T) {
	for _, w := range All() {
		for _, scale := range []workload.Scale{workload.Tiny, workload.Small, workload.Medium} {
			job := w.BuildJob(scale, 4, workload.DefaultCostModel())
			if w.Name() != "sparselu" && cap(job.Tasks) != len(job.Tasks) {
				t.Errorf("%s at %s: %d tasks built into a %d-task hint", w.Name(), scale, len(job.Tasks), cap(job.Tasks))
			}
		}
	}
}
