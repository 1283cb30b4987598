package workload

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"appfit/internal/cluster"
	"appfit/internal/deps"
	"appfit/internal/xrand"
)

// referenceBuilder is the job builder as it first stood — a last-writer map and
// a readers map consulted up to five times per access, a map of
// predecessor payloads per task, edges appended one at a time — kept as the
// reference the region-table, scratch-slice implementation is held to.
type referenceBuilder struct {
	cm         CostModel
	job        cluster.Job
	lastWriter map[Region]int
	readers    map[Region][]int
}

func newReferenceBuilder(name string, cm CostModel) *referenceBuilder {
	return &referenceBuilder{cm: cm, job: cluster.Job{Name: name},
		lastWriter: map[Region]int{}, readers: map[Region][]int{}}
}

func (b *referenceBuilder) Task(label string, node int, flops, memBytes int64, accs ...Acc) int {
	idx := len(b.job.Tasks)
	var argBytes int64
	predBytes := map[int]int64{}
	note := func(p int, bytes int64) {
		if old, ok := predBytes[p]; !ok || bytes > old {
			predBytes[p] = bytes
		}
	}
	for _, a := range accs {
		argBytes += a.Bytes
		if a.Mode.Reads() {
			if w, ok := b.lastWriter[a.Key]; ok {
				note(w, a.Bytes)
			}
		}
		if a.Mode.Writes() {
			if w, ok := b.lastWriter[a.Key]; ok {
				note(w, 0)
			}
			for _, rd := range b.readers[a.Key] {
				if rd != idx {
					note(rd, 0)
				}
			}
		}
	}
	for _, a := range accs {
		if a.Mode.Writes() {
			b.lastWriter[a.Key] = idx
			b.readers[a.Key] = b.readers[a.Key][:0]
		}
		if a.Mode == deps.In {
			b.readers[a.Key] = append(b.readers[a.Key], idx)
		}
	}
	t := cluster.Task{Label: label, Node: node, Cost: b.cm.Cost(flops, memBytes), ArgBytes: argBytes}
	preds := make([]int, 0, len(predBytes))
	for p := range predBytes {
		preds = append(preds, p)
	}
	sort.Ints(preds)
	for _, p := range preds {
		t.Deps = append(t.Deps, p)
		t.DepBytes = append(t.DepBytes, predBytes[p])
	}
	b.job.Tasks = append(b.job.Tasks, t)
	return idx
}

// TestTaskMatchesReference: over random access streams — few keys, so RAW,
// WAR and WAW edges pile onto shared predecessors; repeated keys within one
// task; negative and zero payloads; tasks with no predecessor at all; a
// size hint below, at or above the task count — the built job is
// reflect.DeepEqual to the reference's, nil-versus-empty edge slices
// included.
func TestTaskMatchesReference(t *testing.T) {
	modes := []deps.Mode{deps.In, deps.Out, deps.Inout}
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		got, want := newJobBuilder("q", r.Intn(8), 0, DefaultCostModel()), newReferenceBuilder("q", DefaultCostModel())
		keys := 1 + r.Intn(6)
		for i, n := 0, 1+r.Intn(60); i < n; i++ {
			accs := make([]Acc, r.Intn(5))
			for k := range accs {
				key := r.Intn(keys)
				accs[k] = Acc{Key: Region{Arr: rune('a' + key%2), I: int32(key / 2)}, Mode: modes[r.Intn(3)], Bytes: int64(r.Intn(5)) - 1}
			}
			node, flops, mem := r.Intn(4), int64(r.Intn(1000)), int64(r.Intn(1000))
			if got.Task("t", node, flops, mem, accs...) != want.Task("t", node, flops, mem, accs...) {
				return false
			}
		}
		return reflect.DeepEqual(got.job, want.job)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}
