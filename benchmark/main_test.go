package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload untraced and traced at smoke-test size
// (in-process server, minimal fixed work) and requires the contract's output:
// a last line with exactly the four keys, no failed operation, and every
// declared metric of the run's kind present with its unit.
func TestQuickSmoke(t *testing.T) {
	t.Chdir(t.TempDir()) // the traced runs write .bench_build/spans-*.jsonl
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, defs, flag := w.name+"/untraced", endToEnd, "0"
			if traced {
				name, defs, flag = w.name+"/traced", perLayer, "1"
			}
			t.Run(name, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run(context.Background(),
					[]string{"--workload", w.name, "--seed", "7", "--seconds", "0.2", "--trace", flag, "-quick"},
					&stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit code %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("last line is not a JSON object: %v", err)
				}
				if len(raw) != 4 {
					t.Errorf("result has %d keys, want exactly correct, attempted, failed, metrics", len(raw))
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("metric %s: printed %v with unit %q, want unit %q", d.name, ok, v.Unit, d.unit)
					}
					if !traced && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v.Value)
					}
					if !strings.Contains(stderr.String(), d.name) {
						t.Errorf("metric %s missing from the human-readable report", d.name)
					}
				}
				if traced {
					if _, err := os.Stat(buildDir + "/spans-" + w.name + ".jsonl"); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}

// TestManifestMatchesCode holds BENCHMARK.json to the tables in the code and
// to the limits of the contract it is written to.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var man struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man.Paths, []string{"benchmark"}) || man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", man.Paths, man.RunSeconds)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q (why at most 200 characters)", i, man.Workloads[i].Name, w.name)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %v, the code %v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s: name %q or unit %q outside the contract, or the name is used twice", kind, d.name, d.unit)
			}
			seen[d.name] = true
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s: bound of %s", kind, d.name)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(raw) > 64<<10 {
		t.Errorf("%d per-layer metrics, %d bytes: over the contract's limits", len(perLayer), len(raw))
	}
}

// TestSeedContract: the same seed gives identical generated inputs, another
// seed gives different ones.
func TestSeedContract(t *testing.T) {
	for _, miss := range []bool{false, true} {
		a, b, c := genServeInputs(1, miss, 1), genServeInputs(1, miss, 1), genServeInputs(2, miss, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("miss=%v: the same seed generated different request sequences", miss)
		}
		if reflect.DeepEqual(a.subs, c.subs) {
			t.Errorf("miss=%v: seeds 1 and 2 generated the same request sequences", miss)
		}
	}
	for _, subs := range genServeInputs(3, true, 1).subs {
		seen := make(map[uint64]bool)
		for _, specs := range subs {
			for _, s := range specs {
				if seen[s.Seed] {
					t.Fatalf("serve-miss repeats fault seed %d: that request would hit the cache", s.Seed)
				}
				seen[s.Seed] = true
			}
		}
	}
	if a, b, c := genWorldInputs(1), genWorldInputs(1), genWorldInputs(2); !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("dist-world inputs do not follow the seed")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	if got := tail(xs, 90); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1 (ten samples beyond, interpolated)", got)
	}
	if got := tail(xs, 99); got != 0 {
		t.Errorf("p99 of 100 samples = %v, want 0: only one sample beyond it", got)
	}
	if got := tail(xs[:99], 90); got != 0 {
		t.Errorf("p90 of 99 samples = %v, want 0: nine samples beyond it", got)
	}
	if got := tail(nil, 90); got != 0 {
		t.Errorf("p90 of nothing = %v", got)
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	want := [3]float64{3.5, 13.5, 31.0}
	for i, got := range []float64{q1, q2, q3} {
		if math.Abs(got-want[i]) > 1e-12 {
			t.Errorf("quartile %d = %v, want %v", i+1, got, want[i])
		}
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q2, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles of two values = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	// op 0: root 100 with children 30 and 50, the second with a child of 20;
	// op 1: a root of 40 with one replayed child of 45 (longer than its
	// parent: measured against another stack).
	spans := []span{
		{Name: "root", StartNS: 0, EndNS: 100, Parent: -1, Op: 0},
		{Name: "a.x", StartNS: 10, EndNS: 40, Parent: 0, Op: 0},
		{Name: "b.y", StartNS: 40, EndNS: 90, Parent: 0, Op: 0},
		{Name: "a.z", StartNS: 50, EndNS: 70, Parent: 2, Op: 0},
		{Name: "root", StartNS: 200, EndNS: 240, Parent: -1, Op: 1},
		{Name: "a.x", StartNS: 300, EndNS: 345, Parent: 4, Op: 1},
	}
	if got, want := selfTimes(spans), []int64{20, 30, 30, 20, -5, 45}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	rec := &recorder{spans: spans}
	layerA := rec.selfPerOp(time.Nanosecond, func(n string) bool { return strings.HasPrefix(n, "a.") })
	if want := []float64{50, 45}; !reflect.DeepEqual(layerA, want) {
		t.Errorf("layer a self per op %v, want %v", layerA, want)
	}
	if got, want := rec.perOp("a.x", time.Nanosecond), []float64{30, 45}; !reflect.DeepEqual(got, want) {
		t.Errorf("a.x per op %v, want %v", got, want)
	}
	// The table's rows must sum to the op time.
	var buf bytes.Buffer
	selfTable(&buf, "test", spans)
	if !strings.Contains(buf.String(), "= op time 0.07") || !strings.Contains(buf.String(), "root (unattributed)") {
		t.Errorf("self-time table:\n%s", buf.String())
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x", -1, 0)) // the untraced run: must be a no-op
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	line := "4242 (app (fit) d) S 1 4242 4242 0 -1 4194560 1433 0 0 0 152 48 0 0 20 0 7 0 5263 1268 24 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStat(line)
	if err != nil || got != 2*time.Second {
		t.Errorf("parseProcStat = %v, %v; want 2s (152+48 ticks)", got, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted a malformed line", bad)
		}
	}
	if d, err := procCPU(os.Getpid()); err != nil || d < 0 {
		t.Errorf("procCPU(self) = %v, %v", d, err)
	}
}
