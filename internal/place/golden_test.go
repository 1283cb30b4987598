package place

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"appfit/internal/simnet"
	"appfit/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/optimize_golden.txt from this run")

// goldenProfiles are the traffic shapes TestOptimizeGolden searches:
// pair-partner halo traffic, a directed ring, and two seeded random
// matrices with repeated payload sizes (so entries share links and sizes)
// and self traffic.
func goldenProfiles() []struct {
	name string
	prof *Profile
} {
	halo := NewProfile(16)
	ring := NewProfile(16)
	for r := 0; r < 16; r++ {
		halo.AddN(r, r^1, 32768, 8)
		ring.AddN(r, (r+1)%16, 4096, 4)
	}
	random := func(seed uint64, ranks int) *Profile {
		rng := xrand.New(seed)
		sizes := []int64{0, 64, 4096, 65536}
		p := NewProfile(ranks)
		for i := 0; i < 48; i++ {
			p.AddN(rng.Intn(ranks), rng.Intn(ranks), sizes[rng.Intn(len(sizes))], 1+uint64(rng.Intn(4)))
		}
		for r := 0; r < ranks; r += 3 {
			p.AddN(r, r, 1024, 2)
		}
		return p
	}
	return []struct {
		name string
		prof *Profile
	}{
		{"halo", halo},
		{"ring", ring},
		{"random41", random(41, 12)},
		{"random42", random(42, 10)},
	}
}

// TestOptimizeGolden pins the complete search — the result's price, the
// input's price, the returned rank→node vector and every priced candidate
// of the trajectory — across profiles, nil or scattered starts, node
// capacities 1/2/4/16, a derived or an explicit minimal machine (which
// demotes a scattered start to an infeasible baseline), budgets −1/8/256
// and seeds 1–3. Pricing is exact integer arithmetic and the move stream
// is a fixed xrand sequence, so any change to either moves some line.
// Regenerate with -update only for a deliberate change to the search.
func TestOptimizeGolden(t *testing.T) {
	var got bytes.Buffer
	for _, gp := range goldenProfiles() {
		ranks := gp.prof.Ranks()
		for _, scattered := range []bool{false, true} {
			for _, perNode := range []int{1, 2, 4, 16} {
				minNodes := (ranks + perNode - 1) / perNode
				var start *simnet.Topology
				if scattered {
					used := 2 * minNodes
					if used > ranks {
						used = ranks
					}
					assign := make([]int, ranks)
					for r := range assign {
						assign[r] = r % used
					}
					topo, err := simnet.NewTopology(assign, simnet.MemoryBus(), simnet.Marenostrum())
					if err != nil {
						t.Fatal(err)
					}
					start = topo
				}
				for _, nodes := range []int{0, minNodes} {
					for _, budget := range []int{-1, 8, 256} {
						for seed := uint64(1); seed <= 3; seed++ {
							opts := Options{PerNode: perNode, Nodes: nodes, Seed: seed, Budget: budget}
							fmt.Fprintf(&got, "%s scattered=%t perNode=%d nodes=%d budget=%d seed=%d: ",
								gp.name, scattered, perNode, nodes, budget, seed)
							res, err := Optimize(gp.prof, start, opts)
							if err != nil {
								fmt.Fprintf(&got, "error %v\n", err)
								continue
							}
							nodeOf := make([]int, res.Topo.Ranks())
							for r := range nodeOf {
								nodeOf[r] = res.Topo.NodeOf(r)
							}
							fmt.Fprintf(&got, "eval %+v input %+v nodeOf %v\n  trajectory %+v\n",
								res.Eval, res.Input, nodeOf, res.Trajectory)
						}
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "optimize_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("search drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("golden drifted: %d lines, golden has %d", len(gl), len(wl))
	}
}
