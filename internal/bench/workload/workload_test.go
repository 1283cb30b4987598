package workload

import (
	"errors"
	"reflect"
	"testing"

	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/deps"
	"appfit/internal/rt"
)

// The regions the builder tests access.
var (
	rA, rB, rC = Region{Arr: 'A'}, Region{Arr: 'B'}, Region{Arr: 'C'}
	rS, rX, rY = Region{Arr: 'S'}, Region{Arr: 'X'}, Region{Arr: 'Y'}
	rk         = Region{Arr: 'k'}
)

func TestScaleString(t *testing.T) {
	if Tiny.String() != "tiny" || Small.String() != "small" || Medium.String() != "medium" {
		t.Fatal("scale strings")
	}
	if Scale(9).String() == "" {
		t.Fatal("unknown scale must stringify")
	}
	for _, s := range []Scale{Tiny, Small, Medium} {
		if got, err := ParseScale(s.String()); got != s || err != nil {
			t.Fatalf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("huge"); !errors.Is(err, ErrUnknownScale) || err.Error() != `unknown scale "huge"` {
		t.Fatalf("ParseScale(huge): %v", err)
	}
}

func TestCostModelRoofline(t *testing.T) {
	cm := CostModel{NsPerFlop: 1, NsPerByte: 2}
	if cm.Cost(100, 10) != 100 {
		t.Fatal("compute-bound cost wrong")
	}
	if cm.Cost(10, 100) != 200 {
		t.Fatal("memory-bound cost wrong")
	}
	if cm.Cost(0, 0) != 1 {
		t.Fatal("cost must have a 1ns floor")
	}
	d := DefaultCostModel()
	if d.NsPerFlop <= 0 || d.NsPerByte <= 0 {
		t.Fatal("bad defaults")
	}
}

func TestAccConstructors(t *testing.T) {
	if RAcc(rk, 8).Mode != deps.In || WAcc(rk, 8).Mode != deps.Out || RWAcc(rk, 8).Mode != deps.Inout {
		t.Fatal("acc modes wrong")
	}
}

func TestJobBuilderEdges(t *testing.T) {
	jb := newJobBuilder("t", 0, DefaultCostModel())
	w := jb.Task("w", 0, 10, 10, WAcc(rA, 64))
	r1 := jb.Task("r1", 1, 10, 10, RAcc(rA, 64))
	r2 := jb.Task("r2", 1, 10, 10, RAcc(rA, 64))
	w2 := jb.Task("w2", 0, 10, 10, WAcc(rA, 64))
	job := jb.job
	if job.Name != "t" {
		t.Fatal("metadata lost")
	}
	// RAW: readers depend on writer with payload.
	for _, r := range []int{r1, r2} {
		task := job.Tasks[r]
		if len(task.Deps) != 1 || task.Deps[0] != w {
			t.Fatalf("reader deps %v", task.Deps)
		}
		if task.DepBytes[0] != 64 {
			t.Fatalf("RAW payload %d", task.DepBytes[0])
		}
	}
	// WAW + WAR: the second writer depends on the first writer and both
	// readers, all with zero payload (it overwrites the region).
	wt := job.Tasks[w2]
	if len(wt.Deps) != 3 {
		t.Fatalf("w2 deps %v", wt.Deps)
	}
	for k := range wt.Deps {
		if wt.DepBytes[k] != 0 {
			t.Fatal("WAW/WAR edges must carry no payload")
		}
	}
	if err := job.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestJobBuilderWAW(t *testing.T) {
	jb := newJobBuilder("t", 0, DefaultCostModel())
	a := jb.Task("a", 0, 1, 1, WAcc(rX, 32))
	b := jb.Task("b", 0, 1, 1, WAcc(rX, 32))
	job := jb.job
	if len(job.Tasks[b].Deps) != 1 || job.Tasks[b].Deps[0] != a {
		t.Fatalf("WAW edge missing: %v", job.Tasks[b].Deps)
	}
}

func TestJobBuilderInoutChain(t *testing.T) {
	jb := newJobBuilder("t", 0, DefaultCostModel())
	prev := -1
	for i := 0; i < 5; i++ {
		idx := jb.Task("u", 0, 1, 1, RWAcc(rX, 16))
		job := jb.job
		if i > 0 {
			if len(job.Tasks[idx].Deps) != 1 || job.Tasks[idx].Deps[0] != prev {
				t.Fatalf("step %d: deps %v", i, job.Tasks[idx].Deps)
			}
		}
		prev = idx
	}
}

func TestJobBuilderArgBytes(t *testing.T) {
	jb := newJobBuilder("t", 0, DefaultCostModel())
	jb.Task("m", 0, 1, 1, RAcc(rA, 100), RWAcc(rB, 28))
	if jb.job.Tasks[0].ArgBytes != 128 {
		t.Fatalf("arg bytes %d", jb.job.Tasks[0].ArgBytes)
	}
}

func TestJobBuilderProducesRunnableJob(t *testing.T) {
	jb := newJobBuilder("t", 0, DefaultCostModel())
	jb.Task("a", 0, 100, 0, WAcc(rX, 8))
	jb.Task("b", 1, 100, 0, RAcc(rX, 8), WAcc(rY, 8))
	jb.Task("c", 0, 100, 0, RAcc(rY, 8))
	res, err := cluster.Run(jb.job, cluster.Config{Nodes: 2, CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("empty makespan")
	}
	if res.Messages < 2 {
		t.Fatalf("cross-node edges not charged: %d messages", res.Messages)
	}
}

// TestJobBuilderDeterministic: two builds of the same task stream are
// deep-equal, edge order included — the property the sweep engine's
// content-addressed cache needs to hit across independently built requests
// (a served request is rebuilt from its spec on every submission).
func TestJobBuilderDeterministic(t *testing.T) {
	build := func() cluster.Job {
		jb := newJobBuilder("t", 0, DefaultCostModel())
		// Fan-in with several predecessors, so a map-ordered emit would
		// permute Deps between builds.
		a := jb.Task("a", 0, 10, 0, WAcc(rA, 8))
		b := jb.Task("b", 0, 10, 0, WAcc(rB, 8))
		c := jb.Task("c", 0, 10, 0, WAcc(rC, 8))
		jb.Task("sum", 0, 10, 0, RAcc(rA, 8), RAcc(rB, 8), RAcc(rC, 8), WAcc(rS, 8))
		_ = []int{a, b, c}
		return jb.job
	}
	j1, j2 := build(), build()
	if !reflect.DeepEqual(j1, j2) {
		t.Fatalf("builds differ:\n%+v\n%+v", j1, j2)
	}
	want := []int{0, 1, 2}
	if got := j1.Tasks[3].Deps; !reflect.DeepEqual(got, want) {
		t.Fatalf("fan-in deps %v, want sorted %v", got, want)
	}
}

// TestRegionKeysAreValues: two Region values name the same region exactly
// when every field is equal — a writer of A[1][0] orders only later
// accesses of A[1][0], never A[0][1], A[1][0][1] or B[1][0].
func TestRegionKeysAreValues(t *testing.T) {
	jb := newJobBuilder("t", 0, DefaultCostModel())
	w := jb.Task("w", 0, 1, 1, WAcc(Region{Arr: 'A', I: 1}, 8))
	for _, r := range []Region{{Arr: 'A', J: 1}, {Arr: 'A', I: 1, K: 1}, {Arr: 'B', I: 1}} {
		if i := jb.Task("other", 0, 1, 1, RAcc(r, 8)); len(jb.job.Tasks[i].Deps) != 0 {
			t.Fatalf("%+v depends on the writer of A[1][0]: %v", r, jb.job.Tasks[i].Deps)
		}
	}
	i := jb.Task("same", 0, 1, 1, RAcc(Region{Arr: 'A', I: 1}, 8))
	if deps := jb.job.Tasks[i].Deps; len(deps) != 1 || deps[0] != w {
		t.Fatalf("a reader of A[1][0] has deps %v, want [%d]", deps, w)
	}
}

// TestRTGraphResolvesRegionOnce: a runtime graph calls data once per
// distinct region, however often tasks access it, and hands every access
// the buffer that call returned.
func TestRTGraphResolvesRegionOnce(t *testing.T) {
	bufs := map[Region]buffer.F64{rA: buffer.NewF64(1), rB: buffer.NewF64(1), rC: buffer.NewF64(1)}
	calls := map[Region]int{}
	r := rt.New(rt.Config{Workers: 2})
	g := NewRTGraph(r, func(reg Region) buffer.Buffer {
		calls[reg]++
		return bufs[reg]
	})
	incr := func(ctx *rt.Ctx) { ctx.F64(ctx.NArgs() - 1)[0]++ }
	for range 5 {
		g.Task("a", 0, 1, 1, incr, RWAcc(rA, 8))
		g.Task("b", 0, 1, 1, incr, RAcc(rA, 8), RWAcc(rB, 8))
		g.Task("c", 0, 1, 1, incr, RAcc(rA, 8), RAcc(rB, 8), RWAcc(rC, 8))
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for reg, b := range bufs {
		if calls[reg] != 1 {
			t.Errorf("data(%+v) called %d times, want 1", reg, calls[reg])
		}
		if b[0] != 5 {
			t.Errorf("region %+v's buffer holds %g, want 5 increments", reg, b[0])
		}
	}
}
