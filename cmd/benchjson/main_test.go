package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, dir, name string, benches []Benchmark) string {
	t.Helper()
	raw, err := json.Marshal(Baseline{Suite: "test", Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareGatesEveryUnit is the satellite bugfix's lock: a synthetic
// vus/op regression with flat ns/op must fail the compare — before this
// PR only ns/op gated, so the virtual-makespan headline numbers of
// BENCH_scale.json could regress silently.
func TestCompareGatesEveryUnit(t *testing.T) {
	dir := t.TempDir()
	gates := map[string]gate{"ns/op": {pct: 25}, "vus/op": {pct: 1}}
	oldPath := writeBaseline(t, dir, "old.json", []Benchmark{
		{Name: "AllreduceFlatVsHier/hier/ranks=64-8", Iterations: 100,
			Metrics: map[string]float64{"ns/op": 1000, "vus/op": 8.05, "B/op": 512}},
		{Name: "WorldScale/direct/ranks=64-8", Iterations: 100,
			Metrics: map[string]float64{"ns/op": 2000}},
	})

	cases := []struct {
		name string
		new  []Benchmark
		want int
	}{
		{"identical", []Benchmark{
			{Name: "AllreduceFlatVsHier/hier/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 1000, "vus/op": 8.05, "B/op": 512}},
			{Name: "WorldScale/direct/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 2000}},
		}, 0},
		{"vus-regressed-ns-flat", []Benchmark{
			{Name: "AllreduceFlatVsHier/hier/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 1000, "vus/op": 128.85}},
			{Name: "WorldScale/direct/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 2000}},
		}, 1},
		{"ns-regressed", []Benchmark{
			{Name: "AllreduceFlatVsHier/hier/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 1000, "vus/op": 8.05}},
			{Name: "WorldScale/direct/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 3000}},
		}, 1},
		{"ungated-unit-regression-passes", []Benchmark{
			{Name: "AllreduceFlatVsHier/hier/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 1000, "vus/op": 8.05, "B/op": 1 << 20}},
			{Name: "WorldScale/direct/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 2000}},
		}, 0},
		{"within-thresholds", []Benchmark{
			{Name: "AllreduceFlatVsHier/hier/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 1200, "vus/op": 8.1}},
			{Name: "WorldScale/direct/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 2400}},
		}, 0},
		{"missing-benchmark-passes", []Benchmark{
			{Name: "AllreduceFlatVsHier/hier/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 1000, "vus/op": 8.05}},
		}, 0},
		{"dropped-unit-passes", []Benchmark{
			{Name: "AllreduceFlatVsHier/hier/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 1000}},
			{Name: "WorldScale/direct/ranks=64-8",
				Metrics: map[string]float64{"ns/op": 2000}},
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newPath := writeBaseline(t, dir, tc.name+".json", tc.new)
			if got := compareBaselines(io.Discard, oldPath, newPath, gates, nil); got != tc.want {
				t.Fatalf("compare exit = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestInfoUnitsNeverGate: a collapsed hit% (the sweep engine's cache hit
// rate) is printed by -info but must not fail the compare — it reflects
// the request mix, not a cost — while a gated unit regressing in the same
// file still does.
func TestInfoUnitsNeverGate(t *testing.T) {
	dir := t.TempDir()
	gates := map[string]gate{"ns/op": {pct: 25}}
	info := parseInfo("hit%")
	oldPath := writeBaseline(t, dir, "info_old.json", []Benchmark{
		{Name: "Sweep/warm-8", Metrics: map[string]float64{"ns/op": 1000, "hit%": 100}},
	})
	collapsed := writeBaseline(t, dir, "info_collapsed.json", []Benchmark{
		{Name: "Sweep/warm-8", Metrics: map[string]float64{"ns/op": 1000, "hit%": 0}},
	})
	if got := compareBaselines(io.Discard, oldPath, collapsed, gates, info); got != 0 {
		t.Fatalf("hit%% collapse gated the compare: exit %d", got)
	}
	both := writeBaseline(t, dir, "info_both.json", []Benchmark{
		{Name: "Sweep/warm-8", Metrics: map[string]float64{"ns/op": 5000, "hit%": 0}},
	})
	if got := compareBaselines(io.Discard, oldPath, both, gates, info); got != 1 {
		t.Fatalf("ns/op regression must still gate: exit %d", got)
	}
}

func TestParseGates(t *testing.T) {
	gates, err := parseGates(defaultGates)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]gate{
		"ns/op":     {pct: 25},
		"vus/op":    {pct: 1},
		"p99/op":    {pct: 25},
		"req/s":     {pct: 25, higherBetter: true},
		"allocs/op": {pct: 10},
		"B/op":      {pct: 15},
	}
	if len(gates) != len(want) {
		t.Fatalf("gates = %v", gates)
	}
	for u, g := range want {
		if gates[u] != g {
			t.Fatalf("gates[%q] = %+v, want %+v", u, gates[u], g)
		}
	}
	for _, bad := range []string{"", "ns/op", "ns/op=", "=5", "ns/op=x", "ns/op=-3", "+=5"} {
		if _, err := parseGates(bad); err == nil {
			t.Fatalf("parseGates(%q) must fail", bad)
		}
	}
}

// TestCompareServiceUnits locks the service-trajectory gating: p99/op is a
// cost (regresses upward, like ns/op), req/s is higher-is-better — a
// throughput *drop* beyond the threshold fails, a rise of any size passes.
func TestCompareServiceUnits(t *testing.T) {
	dir := t.TempDir()
	gates, err := parseGates("p99/op=25,+req/s=25")
	if err != nil {
		t.Fatal(err)
	}
	oldPath := writeBaseline(t, dir, "svc_old.json", []Benchmark{
		{Name: "Serve/tenants=2-8", Iterations: 100,
			Metrics: map[string]float64{"req/s": 1000, "p99/op": 2_000_000}},
	})
	cases := []struct {
		name string
		new  map[string]float64
		want int
	}{
		{"flat", map[string]float64{"req/s": 1000, "p99/op": 2_000_000}, 0},
		{"throughput-drop-fails", map[string]float64{"req/s": 600, "p99/op": 2_000_000}, 1},
		{"throughput-drop-within-threshold", map[string]float64{"req/s": 800, "p99/op": 2_000_000}, 0},
		{"throughput-rise-passes", map[string]float64{"req/s": 5000, "p99/op": 2_000_000}, 0},
		{"p99-regress-fails", map[string]float64{"req/s": 1000, "p99/op": 3_000_000}, 1},
		{"p99-improvement-passes", map[string]float64{"req/s": 1000, "p99/op": 500_000}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newPath := writeBaseline(t, dir, tc.name+".json", []Benchmark{
				{Name: "Serve/tenants=2-8", Iterations: 100, Metrics: tc.new},
			})
			if got := compareBaselines(io.Discard, oldPath, newPath, gates, nil); got != tc.want {
				t.Fatalf("compare exit = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkAllreduceFlatVsHier/hier/ranks=64-8   	     100	  11839086 ns/op	         8.055 vus/op	 5143818 B/op	   45825 allocs/op")
	if !ok {
		t.Fatal("parseLine failed")
	}
	if b.Name != "AllreduceFlatVsHier/hier/ranks=64-8" || b.Iterations != 100 {
		t.Fatalf("parsed %+v", b)
	}
	if b.Metrics["vus/op"] != 8.055 || b.Metrics["ns/op"] != 11839086 {
		t.Fatalf("metrics %v", b.Metrics)
	}
}

// TestCompareOutputDeterministic locks the -compare report's ordering: the
// diff walks Go maps (name → metrics, unit → gate), so without the sort
// passes the report would shuffle between runs — and a baseline diff that
// moves lines on every CI run is undiffable. Two baselines whose benchmark
// lists are permutations of each other must render byte-identical reports
// across repeated runs, with benchmark names, gated units, info units and
// NEW entries each in sorted order.
func TestCompareOutputDeterministic(t *testing.T) {
	dir := t.TempDir()
	gates := map[string]gate{"ns/op": {pct: 25}, "vus/op": {pct: 1}, "p99/op": {pct: 25}}
	info := map[string]bool{"hit%": true, "miss%": true}
	mk := func(name string) Benchmark {
		return Benchmark{Name: name, Iterations: 100, Metrics: map[string]float64{
			"ns/op": 1000, "vus/op": 8, "p99/op": 500, "hit%": 90, "miss%": 10,
		}}
	}
	benches := []Benchmark{mk("Zeta/r=4-8"), mk("Alpha/r=2-8"), mk("Mid/r=1-8")}
	oldPath := writeBaseline(t, dir, "old.json", benches)
	// The new side lists the shared benchmarks in reverse and adds two NEW
	// ones, also out of order.
	reversed := []Benchmark{mk("Mid/r=1-8"), mk("Alpha/r=2-8"), mk("Zeta/r=4-8"),
		mk("New/b-8"), mk("New/a-8")}
	newPath := writeBaseline(t, dir, "new.json", reversed)

	render := func() string {
		var buf strings.Builder
		if got := compareBaselines(&buf, oldPath, newPath, gates, info); got != 0 {
			t.Fatalf("compare exit = %d, want 0", got)
		}
		return buf.String()
	}
	first := render()
	for i := 0; i < 10; i++ {
		if again := render(); again != first {
			t.Fatalf("run %d rendered a different report:\n--- first\n%s--- again\n%s", i, first, again)
		}
	}
	// Ordering spot-checks: names sorted within the report, NEW block
	// sorted at the end.
	idx := func(sub string) int {
		i := strings.Index(first, sub)
		if i < 0 {
			t.Fatalf("report missing %q:\n%s", sub, first)
		}
		return i
	}
	if !(idx("Alpha/r=2-8") < idx("Mid/r=1-8") && idx("Mid/r=1-8") < idx("Zeta/r=4-8")) {
		t.Fatalf("benchmark names not sorted:\n%s", first)
	}
	if !(idx("NEW      New/a-8") < idx("NEW      New/b-8")) {
		t.Fatalf("NEW entries not sorted:\n%s", first)
	}
	// Within one benchmark, gated units sorted (ns/op, p99/op, vus/op) and
	// info units after them (hit%, miss%).
	alpha := first[idx("Alpha"):idx("Mid")]
	if !(strings.Index(alpha, "ns/op") < strings.Index(alpha, "p99/op") &&
		strings.Index(alpha, "p99/op") < strings.Index(alpha, "vus/op") &&
		strings.Index(alpha, "vus/op") < strings.Index(alpha, "hit%") &&
		strings.Index(alpha, "hit%") < strings.Index(alpha, "miss%")) {
		t.Fatalf("units not sorted within a benchmark:\n%s", alpha)
	}
}
