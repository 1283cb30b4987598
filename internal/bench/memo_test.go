package bench

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/sweep"
)

func prepare(w workload.Workload, scale workload.Scale, nodes int) *sweep.Prepared {
	return sweep.Prepare(w.BuildJob(scale, nodes, workload.DefaultCostModel()))
}

// TestColdBuildDoesNotStallHits: while one job's build is blocked, a
// request for an already-built job returns at once; once the blocked build
// finishes, it is stored and shared.
func TestColdBuildDoesNotStallHits(t *testing.T) {
	building, release := make(chan struct{}), make(chan struct{})
	memo := &JobMemo{Build: func(w workload.Workload, scale workload.Scale, nodes int) *sweep.Prepared {
		if nodes == 2 {
			close(building)
			<-release
		}
		return prepare(w, scale, nodes)
	}}
	stream, _ := ByName("stream")
	hot := memo.Get(stream, workload.Tiny, 1)
	cold := make(chan *sweep.Prepared, 1)
	go func() { cold <- memo.Get(stream, workload.Tiny, 2) }()
	<-building
	hit := make(chan *sweep.Prepared, 1)
	go func() { hit <- memo.Get(stream, workload.Tiny, 1) }()
	select {
	case p := <-hit:
		if p != hot {
			t.Fatal("a hit returned a different job")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cache hit waited on another job's build")
	}
	close(release)
	built := <-cold
	if again := memo.Get(stream, workload.Tiny, 2); built == nil || again != built {
		t.Fatalf("the finished build was not stored: %p then %p", built, again)
	}
}

// TestJobMemoBoundsTasks: the memo is bounded by the tasks it holds, not
// by entries. A job that would take the sum past the limit resets it, and
// a hit never builds.
func TestJobMemoBoundsTasks(t *testing.T) {
	builds := 0
	memo := &JobMemo{Build: func(w workload.Workload, scale workload.Scale, nodes int) *sweep.Prepared {
		builds++
		return prepare(w, scale, nodes)
	}}
	stream, _ := ByName("stream")
	cholesky, _ := ByName("cholesky")
	small := memo.Get(stream, workload.Tiny, 1)
	large := len(cholesky.BuildJob(workload.Small, 1, workload.DefaultCostModel()).Tasks)
	memo.limit = len(small.Job().Tasks) + large - 1
	if p := memo.Get(stream, workload.Tiny, 1); p != small || builds != 1 {
		t.Fatalf("a hit built: %d builds", builds)
	}
	if memo.Get(cholesky, workload.Small, 1); builds != 2 {
		t.Fatalf("cold job: %d builds", builds)
	}
	if len(memo.m) != 1 || memo.tasks != large {
		t.Fatalf("the large job left %d jobs of %d tasks, want it alone (%d)", len(memo.m), memo.tasks, large)
	}
	if memo.Get(cholesky, workload.Small, 1); builds != 2 {
		t.Fatalf("a hit built: %d builds", builds)
	}
	if memo.Get(stream, workload.Tiny, 1); builds != 3 {
		t.Fatalf("the evicted job did not rebuild: %d builds", builds)
	}
}

// TestConcurrentColdGetsShareOneJob: callers racing for one cold job may
// each build it, but all of them get the one build the memo stored, and
// later calls get it without building.
func TestConcurrentColdGetsShareOneJob(t *testing.T) {
	var builds atomic.Int64
	memo := &JobMemo{Build: func(w workload.Workload, scale workload.Scale, nodes int) *sweep.Prepared {
		builds.Add(1)
		return prepare(w, scale, nodes)
	}}
	fft, _ := ByName("fft")
	const callers = 8
	got := make([]*sweep.Prepared, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = memo.Get(fft, workload.Tiny, 2)
		}()
	}
	start.Done()
	done.Wait()
	for i, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("caller %d got job %p, caller 0 got %p", i, p, got[0])
		}
	}
	n := builds.Load()
	if n < 1 || n > callers {
		t.Fatalf("%d builds for %d callers", n, callers)
	}
	if memo.Get(fft, workload.Tiny, 2) != got[0] || builds.Load() != n {
		t.Fatal("a hit after the race built or returned another job")
	}
}

// TestPreparedIsTheDefaultBuild: the process-wide memo serves the job
// BuildJob builds under the default cost model, and serves it again.
func TestPreparedIsTheDefaultBuild(t *testing.T) {
	linpack, _ := ByName("linpack")
	p := Prepared(linpack, workload.Tiny, 4)
	want := prepare(linpack, workload.Tiny, 4)
	cfg := cluster.Config{Nodes: 4, CoresPerNode: 16}
	got, _ := sweep.RunKey(p.Job(), cfg)
	if direct, _ := sweep.RunKey(want.Job(), cfg); got != direct {
		t.Fatal("the memo's job keys differently from a direct build")
	}
	if Prepared(linpack, workload.Tiny, 4) != p {
		t.Fatal("a second call rebuilt the job")
	}
}
