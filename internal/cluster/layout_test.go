package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"appfit/internal/fault"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
	"appfit/internal/vote"
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

// randomJob draws a valid DAG of 1 to 40 tasks on nodes nodes: repeated
// dependencies on one producer, negative payloads, nil DepBytes, consumers
// of one producer interleaved across nodes.
func randomJob(r *xrand.Rand, nodes int) Job {
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
	return job
}

// TestLayoutMatchesReferenceFanout: on random DAGs — repeated dependencies
// on one producer, negative payloads, nil DepBytes, consumers of one
// producer interleaved across nodes — every producer's local run and
// segments equal the reference grouping, order included.
func TestLayoutMatchesReferenceFanout(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		nodes := 1 + r.Intn(5)
		job := randomJob(r, nodes)
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

// panicOn is an injector that panics on the first draw for task id p.
type panicOn uint64

func (p panicOn) Draw(task uint64, attempt int, _, _ float64) fault.Outcome {
	if task == uint64(p) {
		panic("injector fault")
	}
	return fault.None
}

func (panicOn) BitIndex(uint64, int, int64) int64 { return 0 }

// TestLayoutReuseMatchesFreshRun: one Layout simulates a seeded sequence of
// 200 configs back to back — 1 to 16 cores, 0, 3 or 16 spare cores,
// replicating none, some or all tasks, no faults, fixed-rate faults or a
// script that forces re-executions and gives up, on the flat fabric or a
// placement — first serially, then from two goroutines at once, and every
// Result must equal a fresh Run's bitwise. One config's injector panics
// mid-run: the panic is recovered, and the next run must still be exact.
func TestLayoutReuseMatchesFreshRun(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		nodes := 1 + r.Intn(5)
		job := randomJob(r, nodes)
		n := len(job.Tasks)
		l, err := NewLayout(job, nodes)
		if err != nil {
			t.Log(err)
			return false
		}
		placed, err := simnet.MarenostrumTopology(nodes, 2)
		if err != nil {
			t.Log(err)
			return false
		}
		script := fault.NewScript()
		for k := 0; k < 3; k++ {
			id := uint64(1 + r.Intn(n))
			script.Set(id, 0, fault.SDC)
			gaveUp := uint64(1 + r.Intn(n))
			for a := 0; a < vote.MaxAttempts; a++ {
				script.Set(gaveUp, a, fault.DUE)
			}
		}
		injectors := []fault.Injector{nil, fault.NewFixedRate(seed, 0.1, 0.1), script}
		cfgs := make([]Config, 200)
		want := make([]Result, len(cfgs))
		for k := range cfgs {
			cfg := Config{Nodes: nodes, CoresPerNode: 1 + r.Intn(16), ReplicaCores: []int{0, 3, 16}[r.Intn(3)]}
			switch r.Intn(3) {
			case 1:
				cfg.Replicated = make([]bool, n)
				for i := range cfg.Replicated {
					cfg.Replicated[i] = r.Intn(2) == 0
				}
			case 2:
				cfg.Replicated = All(n)
			}
			cfg.Injector = injectors[r.Intn(len(injectors))]
			if r.Intn(2) == 0 {
				cfg.Topo = placed
			}
			cfgs[k] = cfg
			if want[k], err = Run(job, cfg); err != nil {
				t.Log(err)
				return false
			}
		}
		panicking := 1 + r.Intn(len(cfgs)-2) // a run follows it in either order
		cfgs[panicking].Injector = panicOn(1 + r.Intn(n))
		// replay runs the sequence on l in the order at gives and returns the
		// first mismatch.
		replay := func(at func(k int) int) error {
			for i := range cfgs {
				k := at(i)
				got, err := runRecovered(l, cfgs[k])
				switch {
				case k == panicking && err != errPanicked:
					return fmt.Errorf("config %d: the injector's panic did not reach the caller", k)
				case k != panicking && (err != nil || got != want[k]):
					return fmt.Errorf("config %d %+v after %d reused runs: got %+v, %v, want %+v",
						k, cfgs[k], i, got, err, want[k])
				}
			}
			return nil
		}
		if err := replay(func(k int) int { return k }); err != nil {
			t.Logf("serial: %v", err)
			return false
		}
		var errs [2]error
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = replay(func(k int) int { return [2]int{k, len(cfgs) - 1 - k}[g] })
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Logf("goroutine %d: %v", g, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(52))}); err != nil {
		t.Fatal(err)
	}
}

var errPanicked = errors.New("the run panicked")

// runRecovered runs cfg on l, turning a panic into errPanicked.
func runRecovered(l *Layout, cfg Config) (res Result, err error) {
	defer func() {
		if recover() != nil {
			err = errPanicked
		}
	}()
	return l.Run(cfg)
}

// TestResetIsTotal: a scratch abandoned mid-run by a panicking injector —
// executions queued on every node's cores and spare cores, events pending,
// a clock past 0 — simulates the next config exactly as a fresh Run. A
// Layout drops such a scratch; its reset must not depend on that. A run
// that returns keeps no reference to its config.
func TestResetIsTotal(t *testing.T) {
	job := Job{Name: "wide"}
	for i := 0; i < 64; i++ {
		task := Task{Node: i % 4, Cost: simtime.Time(100 + i*7), ArgBytes: 4096}
		if i >= 32 {
			task.Deps, task.DepBytes = []int{i - 32, i - 31}, []int64{1 << 20, 1 << 10}
		}
		job.Tasks = append(job.Tasks, task)
	}
	l, err := NewLayout(job, 4)
	if err != nil {
		t.Fatal(err)
	}
	placed, err := simnet.MarenostrumTopology(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: 4, CoresPerNode: 1, ReplicaCores: 1, Replicated: All(len(job.Tasks)),
		Injector: fault.NewFixedRate(3, 0.1, 0.1), Topo: placed}
	want, err := Run(job, cfg.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	s := l.newSim()
	abandoned := cfg
	abandoned.Injector = panicOn(1)
	func() {
		defer func() { _ = recover() }()
		_, _ = s.run(abandoned.Normalized())
		t.Fatal("the injector did not panic")
	}()
	if got, err := s.run(cfg.Normalized()); err != nil || got != want {
		t.Fatalf("reused after a panic: %+v, %v; a fresh Run: %+v", got, err, want)
	}
	if s.cfg.Injector != nil || s.cfg.Replicated != nil || s.cfg.Topo != nil || s.net.Topology() != nil {
		t.Fatal("a returned run's scratch still references its config")
	}
}
