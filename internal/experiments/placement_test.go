package experiments

import (
	"strings"
	"testing"
)

func TestPlacementTable(t *testing.T) {
	// Test-sized machine: 16 ranks × 4 per node (the acceptance run at
	// 64 × 16 is the placement table in the check-figures gate).
	rows, s, err := PlacementTable(16, 4, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 2 workloads × 3 placements", len(rows))
	}
	byKey := map[string]PlacementRow{}
	for _, r := range rows {
		if r.US <= 0 {
			t.Fatalf("%s/%s: degenerate makespan %+v", r.Workload, r.Placement, r)
		}
		byKey[r.Workload+"/"+r.Placement] = r
	}
	for _, wl := range []string{"halo", "nbody"} {
		random, block := byKey[wl+"/random"], byKey[wl+"/block"]
		if random.Evals != 0 || block.Evals != 0 {
			t.Fatalf("%s: fixed placements must report 0 evals: %v / %v", wl, random.Evals, block.Evals)
		}
		opt := byKey[wl+"/optimized"]
		if opt.US > random.US {
			t.Fatalf("%s: optimized %v µs worse than random %v µs", wl, opt.US, random.US)
		}
		if opt.Evals == 0 {
			t.Fatalf("%s: optimized row reports no evaluations", wl)
		}
	}
	// Halo: pairwise traffic, room for every pair — the search must fully
	// co-locate (zero wire bytes), matching block.
	if opt := byKey["halo/optimized"]; opt.WireMB != 0 || opt.US > byKey["halo/block"].US {
		t.Fatalf("halo optimized must recover the block placement: %+v vs %+v", opt, byKey["halo/block"])
	}
	for _, want := range []string{"halo", "nbody", "random", "block", "optimized", "makespan"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}
