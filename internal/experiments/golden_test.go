package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite testdata/figures and EXPERIMENTS.md's figure table from the current code")

func goldenFigures() []Figure {
	var out []Figure
	for _, f := range Registry {
		if f.Golden {
			out = append(out, f)
		}
	}
	return out
}

// TestFiguresGolden regenerates every deterministic figure at DefaultParams
// in one batch, as `cmd/experiments all` does, and requires each printed
// form to equal testdata/figures/<name>.txt byte for byte. Run with -update
// to rewrite the files after a deliberate change, and say why in the commit.
func TestFiguresGolden(t *testing.T) {
	golden := goldenFigures()
	got := map[string]string{}
	if err := Run(sweep.New(sweep.Options{}), DefaultParams(), golden, func(f Figure, out string) { got[f.Name] = out }); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "figures")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range golden {
		path := filepath.Join(dir, f.Name+".txt")
		if *update {
			if err := os.WriteFile(path, []byte(got[f.Name]), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (go test ./internal/experiments -run TestFiguresGolden -update writes it)", err)
		}
		if got[f.Name] != string(want) {
			t.Errorf("%s differs from %s:\n--- want\n%s--- got\n%s", f.Name, path, want, got[f.Name])
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(golden) {
		t.Errorf("%s holds %d tables for %d golden figures: delete the stale ones", dir, len(files), len(golden))
	}
}

// TestExperimentsTableFromRegistry holds EXPERIMENTS.md's "Paper figures"
// table to the registry it is generated from (-update rewrites it).
func TestExperimentsTableFromRegistry(t *testing.T) {
	var b strings.Builder
	b.WriteString("| command | figure | paper | the paper reports | reproduced |\n|---|---|---|---|---|\n")
	for _, f := range Registry {
		ref, paper, repro := f.Ref, f.Paper, "wall clock or thread timing: not golden"
		if ref == "" {
			ref = "extension"
		}
		if paper == "" {
			paper = "—"
		}
		if f.Golden {
			repro = fmt.Sprintf("[`%s.txt`](internal/experiments/testdata/figures/%s.txt)", f.Name, f.Name)
		}
		fmt.Fprintf(&b, "| `experiments %s` | %s | %s | %s | %s |\n", f.Name, f.Title, ref, paper, repro)
	}
	const path, begin, end = "../../EXPERIMENTS.md", "<!-- registry table: begin -->\n", "<!-- registry table: end -->\n"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i, j := strings.Index(string(doc), begin), strings.Index(string(doc), end)
	if i < 0 || j < i {
		t.Fatalf("%s lacks the %q … %q markers", path, begin, end)
	}
	cur := string(doc[i+len(begin) : j])
	if *update {
		doc = []byte(string(doc[:i+len(begin)]) + b.String() + string(doc[j:]))
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if cur != b.String() {
		t.Errorf("%s's figure table is stale (-update rewrites it):\n--- doc\n%s--- registry\n%s", path, cur, b.String())
	}
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Registry {
		if f.Name == "" || f.Title == "" || f.reduce == nil || seen[f.Name] {
			t.Fatalf("bad registry entry %q", f.Name)
		}
		seen[f.Name] = true
	}
	if _, ok := Lookup("all"); ok {
		t.Fatal(`"all" is cmd/experiments' word for the whole registry`)
	}
}

// TestFiguresBuildEachJobOnce counts the job builds of Figures 4, 5 and 6
// and the spare-core sweep at Small, as the benchmark's figures round runs
// them, through a private memo: the first pass builds each of the 25
// distinct (benchmark, nodes) jobs once, not the 35 its figures ask for, and
// a second pass on a fresh engine builds none and prints the same tables.
func TestFiguresBuildEachJobOnce(t *testing.T) {
	var builds atomic.Int64
	memo := &bench.JobMemo{Build: func(w workload.Workload, scale workload.Scale, nodes int) *sweep.Prepared {
		builds.Add(1)
		return sweep.Prepare(w.BuildJob(scale, nodes, workload.DefaultCostModel()))
	}}
	defer func(real func(workload.Workload, workload.Scale, int) *sweep.Prepared) { prepared = real }(prepared)
	prepared = memo.Get
	var first []string
	for pass, want := range []int64{25, 0} {
		builds.Store(0)
		eng := sweep.New(sweep.Options{})
		_, fig4, err4 := Fig4(eng, workload.Small)
		_, fig5, err5 := Fig5(eng, workload.Small)
		_, fig6, err6 := Fig6(eng, workload.Small)
		spare, errS := SpareCoreSweep(eng, "cholesky", workload.Small)
		for _, err := range []error{err4, err5, err6, errS} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := builds.Load(); got != want {
			t.Errorf("pass %d built %d jobs, want %d", pass, got, want)
		}
		tables := []string{fig4, fig5, fig6, spare}
		if first == nil {
			first = tables
		} else if !slices.Equal(tables, first) {
			t.Errorf("pass %d printed other tables than pass 0", pass)
		}
	}
}

// BenchmarkSimulatedFigures regenerates the figures that simulate, through
// a fresh default engine per iteration: in one batch (Run's way) and in one
// batch per figure (the way the FigN entry points run them).
func BenchmarkSimulatedFigures(b *testing.B) {
	var figs []Figure
	for _, f := range Registry {
		if f.requests != nil {
			figs = append(figs, f)
		}
	}
	p, emit := DefaultParams(), func(Figure, string) {}
	b.Run("one-batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := Run(sweep.New(sweep.Options{}), p, figs, emit); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-figure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := sweep.New(sweep.Options{})
			for _, f := range figs {
				if err := Run(eng, p, []Figure{f}, emit); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
