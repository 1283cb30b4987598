package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"appfit/internal/simtime"
	"appfit/internal/xrand"
)

// referenceFanout is the per-finish grouping the flat layout replaced: walk
// the producer's successors in (consumer, dep position) order, release the
// local ones, batch the rest per destination node with the max payload
// starting from 0. It returns the local successors and, by ascending
// destination, each delivery's payload and successors.
func referenceFanout(job Job, nodes, i int) (local []int32, dsts []int, bytes []int64, tasks [][]int32) {
	type delivery struct {
		bytes int64
		tasks []int32
	}
	perNode := map[int]*delivery{}
	for j, t := range job.Tasks {
		for k, d := range t.Deps {
			if d != i {
				continue
			}
			if t.Node == job.Tasks[i].Node {
				local = append(local, int32(j))
				continue
			}
			dl := perNode[t.Node]
			if dl == nil {
				dl = &delivery{}
				perNode[t.Node] = dl
			}
			if t.DepBytes != nil && t.DepBytes[k] > dl.bytes {
				dl.bytes = t.DepBytes[k]
			}
			dl.tasks = append(dl.tasks, int32(j))
		}
	}
	for dst := 0; dst < nodes; dst++ {
		if dl := perNode[dst]; dl != nil {
			dsts, bytes, tasks = append(dsts, dst), append(bytes, dl.bytes), append(tasks, dl.tasks)
		}
	}
	return
}

// TestLayoutMatchesReferenceFanout: on random DAGs — repeated dependencies
// on one producer, negative payloads, nil DepBytes, consumers of one
// producer interleaved across nodes — every producer's local run and
// segments equal the reference grouping, order included.
func TestLayoutMatchesReferenceFanout(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		nodes := 1 + r.Intn(5)
		job := Job{}
		for i, n := 0, 1+r.Intn(40); i < n; i++ {
			task := Task{Node: r.Intn(nodes), Cost: simtime.Time(1 + r.Intn(9))}
			if i > 0 {
				for k, deps := 0, r.Intn(4); k < deps; k++ {
					task.Deps = append(task.Deps, r.Intn(i))
				}
				if r.Intn(4) > 0 {
					for range task.Deps {
						task.DepBytes = append(task.DepBytes, int64(r.Intn(7))-2)
					}
				}
			}
			job.Tasks = append(job.Tasks, task)
		}
		if job.Validate(nodes) != nil {
			return false
		}
		l := newLayout(job, nodes)
		for i := range job.Tasks {
			wantLocal, wantDsts, wantBytes, wantTasks := referenceFanout(job, nodes, i)
			var gotLocal []int32
			for _, e := range l.edges[l.start[i]:l.remote[i]] {
				gotLocal = append(gotLocal, e.task)
			}
			var gotDsts []int
			var gotBytes []int64
			var gotTasks [][]int32
			for lo, end := l.remote[i], l.start[i+1]; lo < end; {
				hi, bytes := l.segment(lo, end)
				var seg []int32
				for _, e := range l.edges[lo:hi] {
					seg = append(seg, e.task)
				}
				gotDsts, gotBytes, gotTasks = append(gotDsts, int(l.edges[lo].node)), append(gotBytes, bytes), append(gotTasks, seg)
				lo = hi
			}
			if !reflect.DeepEqual(gotLocal, wantLocal) || !reflect.DeepEqual(gotDsts, wantDsts) ||
				!reflect.DeepEqual(gotBytes, wantBytes) || !reflect.DeepEqual(gotTasks, wantTasks) {
				t.Logf("producer %d: local %v want %v; dsts %v want %v; bytes %v want %v; tasks %v want %v",
					i, gotLocal, wantLocal, gotDsts, wantDsts, gotBytes, wantBytes, gotTasks, wantTasks)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}
