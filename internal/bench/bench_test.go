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
	}
	if _, err := ByName("cholesky"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name must error")
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
			if job.InputBytes <= 0 {
				t.Fatal("job missing input bytes")
			}
			res, err := cluster.Run(job, cluster.Config{Nodes: nodes, CoresPerNode: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan <= 0 || res.Makespan > job.TotalCost()*10 {
				t.Fatalf("implausible makespan %d (serial %d)", res.Makespan, job.TotalCost())
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
	// The real-runtime DAG and the simulator DAG of compute tasks must
	// stay structurally consistent. Init tasks exist only in some job
	// builders, so require job count >= rt count and within 2×.
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
			if len(job.Tasks) < rtTasks/2 || len(job.Tasks) > rtTasks*2+64 {
				t.Fatalf("task counts diverge: rt=%d job=%d", rtTasks, len(job.Tasks))
			}
		})
	}
}

// TestBuiltJobsGolden pins the jobs the builders emit — every task's label,
// node, cost, footprint, predecessor list and edge payloads, through the
// sweep engine's content hash — for all nine benchmarks at Tiny and Small
// on 1, 4 and 64 nodes. The digest was recorded before JobBuilder.Task
// dropped its per-task map (PR 22): cache keys, and the figures keyed by
// them, are only stable if the built jobs are.
func TestBuiltJobsGolden(t *testing.T) {
	const want = "c5bd4857c3e8e2d2db76defd6260924e613cadb4b5ccc7146d49fccb33f1a15c"
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
// to NewJobBuilder exactly — the task list never regrows and carries no
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
