package bench

import (
	"testing"

	"appfit/internal/bench/fft"
	"appfit/internal/bench/workload"
	"appfit/internal/rt"
	"appfit/internal/trace"
)

// TestGraphsAgree is the differential test between the two engines' views
// of each benchmark: the tasks BuildRT submits to a one-worker runtime (in
// submission order, which is task-id order) and the tasks BuildJob hands the
// simulator must match one for one in label and argument footprint, at Tiny
// and Small. The one allowed difference is fft's transposes: the job charges
// each source panel only the slab the transpose reads from it (two panels'
// bytes in all), while the runtime sizes the task's FIT from the whole panels
// it is handed — 1+nb panels. The edges agree too: the runtime's DepEdges,
// at one worker and at two, is the job's total predecessor count.
func TestGraphsAgree(t *testing.T) {
	cm := workload.DefaultCostModel()
	for _, w := range All() {
		for _, s := range []workload.Scale{workload.Tiny, workload.Small} {
			t.Run(w.Name()+"/"+s.String(), func(t *testing.T) {
				tr := trace.New()
				r := rt.New(rt.Config{Workers: 1, Tracer: tr})
				_ = w.BuildRT(r, s)
				if err := r.Shutdown(); err != nil {
					t.Fatal(err)
				}
				recs, job := tr.Records(), w.BuildJob(s, 1, cm)
				edges := 0
				for _, jt := range job.Tasks {
					edges += len(jt.Deps)
				}
				r2 := rt.New(rt.Config{Workers: 2})
				_ = w.BuildRT(r2, s)
				if err := r2.Shutdown(); err != nil {
					t.Fatal(err)
				}
				if got1, got2 := r.Stats().DepEdges, r2.Stats().DepEdges; got1 != edges || got2 != edges {
					t.Fatalf("runtime derived %d edges at one worker and %d at two, job has %d", got1, got2, edges)
				}
				if len(recs) != len(job.Tasks) {
					t.Fatalf("runtime ran %d tasks, job has %d", len(recs), len(job.Tasks))
				}
				for i, rec := range recs {
					jt := job.Tasks[i]
					want := jt.ArgBytes
					if w.Name() == "fft" && (jt.Label == "transpose" || jt.Label == "transpose-back") {
						p := fft.ParamsFor(s)
						panel := int64(p.R) * int64(p.N) * 16
						if jt.ArgBytes != 2*panel {
							t.Fatalf("task %d (%s): job declares %d bytes, want 2 panels = %d", i, jt.Label, jt.ArgBytes, 2*panel)
						}
						want = int64(1+p.Nb()) * panel
					}
					if rec.Label != jt.Label || rec.ArgBytes != want {
						t.Fatalf("task %d: runtime (%s, %d bytes), job (%s, %d bytes), want runtime %d bytes",
							i, rec.Label, rec.ArgBytes, jt.Label, jt.ArgBytes, want)
					}
				}
			})
		}
	}
}

// TestBuildJobAllocs holds every BuildJob at Small to an allocation ceiling:
// a benchmark states its graph once, and the simulator's side must not pay
// for the runtime's (task bodies, buffers, region keys).
func TestBuildJobAllocs(t *testing.T) {
	ceiling := map[string]float64{
		"sparselu": 1309, "cholesky": 1079, "fft": 450, "perlin": 6360, "stream": 6477,
		"nbody": 790, "matmul": 1573, "pingpong": 1443, "linpack": 1945,
	}
	cm := workload.DefaultCostModel()
	for _, w := range All() {
		got := testing.AllocsPerRun(3, func() { w.BuildJob(workload.Small, 1, cm) })
		if got > ceiling[w.Name()] {
			t.Errorf("%s: BuildJob at small makes %.0f allocations, ceiling %.0f", w.Name(), got, ceiling[w.Name()])
		}
		t.Logf("%s: %.0f allocations", w.Name(), got)
	}
}
